"""Tests for the Eq. 1 subgraph scheduler and topN lists."""

import numpy as np
import pytest

from repro.common import SchedulingError
from repro.core import SubgraphScheduler


def make_scheduler(
    n_blocks=8,
    n_chips=2,
    dense=None,
    alpha=1.2,
    beta=1.5,
    top_n=4,
    m=4,
    use_scores=True,
):
    block_chip = np.arange(n_blocks) % n_chips
    is_dense = np.zeros(n_blocks, dtype=bool)
    if dense:
        is_dense[list(dense)] = True
    return SubgraphScheduler(
        block_chip=block_chip,
        is_dense_block=is_dense,
        first_block=0,
        last_block=n_blocks - 1,
        n_chips=n_chips,
        alpha=alpha,
        beta=beta,
        top_n=top_n,
        update_period_m=m,
        use_scores=use_scores,
    )


class TestScoreboard:
    def test_eq1_nondense(self):
        s = make_scheduler(alpha=1.2, beta=1.5)
        s.add_buffered(0, 10)
        s.add_spilled(0, 4)
        # score = (pwb * alpha + fl) * beta for non-dense
        assert s.score(0) == pytest.approx((6 * 1.2 + 4) * 1.5)

    def test_eq1_dense_no_beta(self):
        s = make_scheduler(dense={1}, alpha=1.2, beta=1.5)
        s.add_buffered(1, 10)
        assert s.score(1) == pytest.approx(10 * 1.2)

    def test_beta_prioritizes_nondense_at_equal_load(self):
        s = make_scheduler(dense={1})
        s.add_buffered(0, 10)
        s.add_buffered(1, 10)
        assert s.score(0) > s.score(1)

    def test_alpha_weighs_buffered_over_spilled(self):
        s = make_scheduler(alpha=2.0)
        s.add_buffered(0, 10)
        s.add_buffered(2, 10)
        s.add_spilled(2, 10)  # block 2: all spilled
        assert s.score(0) > s.score(2)

    def test_take_walks_resets(self):
        s = make_scheduler()
        s.add_buffered(0, 7)
        s.add_spilled(0, 3)
        assert s.take_walks(0) == (4, 3)
        assert s.take_walks(0) == (0, 0)
        assert s.total_pending == 0

    def test_spill_more_than_buffered_rejected(self):
        s = make_scheduler()
        s.add_buffered(0, 2)
        with pytest.raises(SchedulingError):
            s.add_spilled(0, 5)

    def test_out_of_partition_block_rejected(self):
        s = make_scheduler(n_blocks=4)
        with pytest.raises(SchedulingError):
            s.add_buffered(99, 1)

    def test_negative_count_rejected(self):
        s = make_scheduler()
        with pytest.raises(SchedulingError):
            s.add_buffered(0, -1)


class TestSelection:
    def test_picks_highest_score_on_chip(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        # chip 0 owns even blocks
        s.add_buffered(0, 5)
        s.add_buffered(2, 50)
        s.add_buffered(4, 10)
        assert s.next_subgraph(0) == 2

    def test_respects_chip_ownership(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(1, 100)  # chip 1's block
        assert s.next_subgraph(0) is None
        assert s.next_subgraph(1) == 1

    def test_exclude(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(0, 50)
        s.add_buffered(2, 10)
        assert s.next_subgraph(0, exclude={0}) == 2

    def test_empty_returns_none(self):
        s = make_scheduler()
        assert s.next_subgraph(0) is None

    def test_drained_blocks_skipped(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(0, 5)
        s.add_buffered(2, 3)
        s.take_walks(0)
        assert s.next_subgraph(0) == 2

    def test_chips_with_work(self):
        s = make_scheduler(n_blocks=8, n_chips=4)
        s.add_buffered(0, 1)  # chip 0
        s.add_buffered(5, 1)  # chip 1
        assert s.chips_with_work() == [0, 1]

    def test_bad_chip_rejected(self):
        s = make_scheduler()
        with pytest.raises(SchedulingError):
            s.next_subgraph(99)

    def test_without_scores_uses_walk_counts(self):
        s = make_scheduler(dense={2}, use_scores=False, beta=100.0)
        s.add_buffered(0, 10)  # non-dense: huge beta would inflate score
        s.add_buffered(2, 11)  # dense, more walks
        # count-based scheduling picks the dense block (more walks),
        # score-based (beta=100) would pick block 0.
        assert s.next_subgraph(0) == 2

    def test_with_scores_beta_flips_choice(self):
        s = make_scheduler(dense={2}, use_scores=True, beta=100.0)
        s.add_buffered(0, 10)
        s.add_buffered(2, 11)
        assert s.next_subgraph(0) == 0


class TestTopNAmortization:
    def test_deferred_updates_counted(self):
        s = make_scheduler(m=10)
        for _ in range(9):
            s.add_buffered(0, 1)
        assert s.topn_updates_deferred == 9

    def test_m_insertions_trigger_dirty(self):
        s = make_scheduler(m=4, n_chips=2)
        s.next_subgraph(0)  # establishes a clean (empty) top list
        refreshes = s.topn_refreshes
        s.add_buffered(0, 4)  # exactly M -> chip 0 dirty
        s.next_subgraph(0)
        assert s.topn_refreshes > refreshes

    def test_topn_caps_list_length(self):
        s = make_scheduler(n_blocks=8, n_chips=1, top_n=2)
        for b in range(8):
            s.add_buffered(b, b + 1)
        s.next_subgraph(0)
        assert len(s._top[0]) <= 2

    def test_stale_list_recovers(self):
        # Fill beyond topN, drain the listed entries, ensure the
        # scheduler still finds the remaining work via refresh.
        s = make_scheduler(n_blocks=8, n_chips=1, top_n=2, m=1)
        for b in range(8):
            s.add_buffered(b, 10 - b)
        served = []
        while True:
            blk = s.next_subgraph(0)
            if blk is None:
                break
            served.append(blk)
            s.take_walks(blk)
        assert sorted(served) == list(range(8))

    def test_validation(self):
        with pytest.raises(SchedulingError):
            make_scheduler(top_n=0)
        with pytest.raises(SchedulingError):
            make_scheduler(alpha=0)

    def test_ties_break_to_lowest_block_id(self):
        """Regression: equal scores must rank the lowest block ID first.

        ``argsort(key)[::-1]`` reverses the stable order, putting the
        *highest* index first among ties; sorting on the negated key
        keeps ties in ascending-index order.
        """
        s = make_scheduler(n_blocks=8, n_chips=1, top_n=4)
        for b in (6, 2, 4):
            s.add_buffered(b, 5)  # identical scores
        assert s.next_subgraph(0) == 2
        assert s._top[0] == [2, 4, 6]

    def test_topn_order_deterministic_across_runs(self):
        """Same insertion history -> identical topN lists, repeatedly."""
        def build():
            s = make_scheduler(n_blocks=8, n_chips=1, top_n=8)
            for b in (7, 1, 3, 5):
                s.add_buffered(b, 4)
            s.add_buffered(0, 9)
            s.next_subgraph(0)
            return list(s._top[0])
        first = build()
        assert first[0] == 0  # highest score first
        assert first[1:] == [1, 3, 5, 7]  # ties ascending by block ID
        for _ in range(5):
            assert build() == first


def assert_chip_index_matches_scan(s):
    """The per-chip index equals a brute-force ``block_chip == chip``
    scan for every chip."""
    assert len(s._chip_blocks) >= s.n_chips
    for chip in range(s.n_chips):
        np.testing.assert_array_equal(
            s._chip_blocks[chip], np.flatnonzero(np.asarray(s.block_chip) == chip)
        )


class TestBatchedInsert:
    """add_buffered over an array of distinct blocks equals one scalar
    call per block."""

    def state(self, s):
        return (
            list(s.pwb),
            list(s._inserts_since_update),
            set(s._dirty),
            s.topn_updates_deferred,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_array_call_equals_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        batched = make_scheduler(n_blocks=24, n_chips=4, m=5, dense={3, 9})
        scalar = make_scheduler(n_blocks=24, n_chips=4, m=5, dense={3, 9})
        for step in range(40):
            k = int(rng.integers(1, 10))
            blocks = np.sort(rng.choice(24, size=k, replace=False))
            counts = rng.integers(0, 7, size=k)
            batched.add_buffered(blocks, counts)
            for b, c in zip(blocks.tolist(), counts.tolist()):
                scalar.add_buffered(b, c)
            assert self.state(batched) == self.state(scalar), step
            if step % 3 == 0:
                # Refreshes clear dirty chips, so later inserts re-dirty.
                chip = int(rng.integers(0, 4))
                assert batched.next_subgraph(chip) == scalar.next_subgraph(chip)
            if step % 7 == 0:
                b = int(rng.integers(0, 24))
                assert batched.take_walks(b) == scalar.take_walks(b)
        assert [batched.score(b) for b in range(24)] == [
            scalar.score(b) for b in range(24)
        ]

    def test_scalar_count_broadcasts(self):
        a = make_scheduler(m=2)
        b = make_scheduler(m=2)
        a.add_buffered(np.array([1, 4, 6]), 3)
        for blk in (1, 4, 6):
            b.add_buffered(blk, 3)
        assert self.state(a) == self.state(b)

    def test_empty_array_is_a_no_op(self):
        s = make_scheduler()
        before = self.state(s)
        s.add_buffered(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert s.total_pending == 0
        assert self.state(s) == before

    @pytest.mark.parametrize(
        "blocks, counts",
        [
            ([2, 1], [1, 1]),  # not ascending
            ([3, 3], [1, 1]),  # duplicate
            ([0, 8], [1, 1]),  # past the partition
            ([-1, 2], [1, 1]),  # before the partition
            ([1, 2], [1, -1]),  # negative count
            ([1, 2], [1, 1, 1]),  # counts not parallel to blocks
        ],
    )
    def test_rejects_bad_batches(self, blocks, counts):
        s = make_scheduler(n_blocks=8)
        with pytest.raises(SchedulingError):
            s.add_buffered(np.array(blocks), np.array(counts))
        assert s.total_pending == 0


class TestChipIndex:
    def test_built_at_construction(self):
        s = make_scheduler(n_blocks=11, n_chips=3)
        assert_chip_index_matches_scan(s)

    def test_follows_reassign_blocks(self):
        rng = np.random.default_rng(5)
        s = make_scheduler(n_blocks=32, n_chips=4)
        for _ in range(10):
            blocks = rng.choice(32, size=6, replace=False)
            s.reassign_blocks(blocks, rng.integers(0, 4, size=6))
            assert_chip_index_matches_scan(s)

    def test_refresh_matches_full_scan(self):
        """topN from the index equals topN from the brute-force scan."""
        rng = np.random.default_rng(2)
        s = make_scheduler(n_blocks=32, n_chips=4, top_n=5, m=1)
        s.reassign_blocks(np.arange(0, 32, 3), np.zeros(11, dtype=np.int64))
        s.add_buffered(np.arange(32), rng.integers(0, 9, size=32))
        for chip in range(4):
            s._refresh_top(chip)
            counts = np.add(s.pwb, s.fl)
            scores = np.array([s.score(b) for b in range(32)])
            cand = np.flatnonzero((np.asarray(s.block_chip) == chip) & (counts > 0))
            order = np.argsort(-scores[cand], kind="stable")
            assert s._top[chip] == cand[order][:5].tolist()

    def test_chips_with_work_matches_unique(self):
        rng = np.random.default_rng(9)
        s = make_scheduler(n_blocks=32, n_chips=6)
        s.add_buffered(np.flatnonzero(rng.random(32) < 0.3), 2)
        counts = np.add(s.pwb, s.fl)
        want = np.unique(np.asarray(s.block_chip)[counts > 0]).tolist()
        assert s.chips_with_work() == want


class TestPlacementCopy:
    def test_scheduler_does_not_alias_callers_placement(self):
        """A caller that remaps its own placement first must still see
        the move through reassign_blocks (old owner dirty)."""
        placement = np.arange(8, dtype=np.int64) % 2
        s = SubgraphScheduler(
            block_chip=placement,
            is_dense_block=np.zeros(8, dtype=bool),
            first_block=0,
            last_block=7,
            n_chips=2,
            alpha=1.2,
            beta=1.5,
            top_n=4,
            update_period_m=4,
        )
        s._dirty.clear()
        placement[[0, 2]] = 1
        assert s.block_chip[0] == s.block_chip[2] == 0
        s.reassign_blocks([0, 2], placement[[0, 2]])
        assert s._dirty == {0, 1}
        assert_chip_index_matches_scan(s)


class TestOwnership:
    @pytest.mark.parametrize(
        "owners, n_chips", [([0, 1, 2, 3], 3), ([0, -1], 2)]
    )
    def test_owner_outside_chip_range_rejected(self, owners, n_chips):
        """An owner with no chip would leave its walks pending forever."""
        with pytest.raises(SchedulingError):
            SubgraphScheduler(
                block_chip=np.array(owners),
                is_dense_block=np.zeros(len(owners), dtype=bool),
                first_block=0,
                last_block=len(owners) - 1,
                n_chips=n_chips,
                alpha=1.2,
                beta=1.5,
                top_n=4,
                update_period_m=4,
            )

    def test_failed_reassign_changes_nothing(self):
        """A bad pair anywhere in the call leaves every block where it
        was, including the valid pairs before it."""
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(np.array([0, 1, 2]), np.array([3, 4, 5]))
        s.next_subgraph(0)
        s.next_subgraph(1)

        def state():
            return (
                list(s.block_chip),
                [list(b) for b in s._chip_blocks],
                set(s._dirty),
                list(s.chips_with_work()),
            )

        before = state()
        with pytest.raises(SchedulingError):
            s.reassign_blocks([0, 1], [1, 7])
        with pytest.raises(SchedulingError):
            s.reassign_blocks([0, 99], [1, 1])
        assert state() == before
        assert s.next_subgraph(0) == 2

    def test_reassign_moves_pending_counts(self):
        s = make_scheduler(n_blocks=8, n_chips=4)
        s.add_buffered(np.array([0, 1]), np.array([3, 4]))
        s.reassign_blocks([0], [2])
        assert s._chip_pending == [0, 4, 3, 0]
        assert s.chips_with_work() == [1, 2]
        assert s.next_subgraph(2) == 0
        assert s.next_subgraph(0) is None


class StubBuffer:
    """The two buffer reads ``consistency_errors`` makes, from a dict of
    ``block -> (buffered, spilled)``."""

    def __init__(self, counts):
        self._counts = counts

    def blocks_with_walks(self):
        return sorted(self._counts)

    def counts(self, block):
        return self._counts.get(block, (0, 0))


class TestConsistencyErrors:
    def consistent(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(np.array([1, 2]), np.array([4, 6]))
        s.add_spilled(2, 2)
        return s, StubBuffer({1: (4, 0), 2: (4, 2)})

    def test_consistent_state_reports_nothing(self):
        s, buf = self.consistent()
        assert s.consistency_errors(buf) == []

    def test_per_chip_count_drift_reported(self):
        s, buf = self.consistent()
        s._chip_pending[0] += 1
        s._chip_pending[1] -= 1
        errors = s.consistency_errors(buf)
        assert len(errors) == 1 and "per-chip pending" in errors[0]

    def test_total_drift_reported(self):
        s, buf = self.consistent()
        s._total += 3
        errors = s.consistency_errors(buf)
        assert len(errors) == 1 and "total pending" in errors[0]

    def test_chips_with_work_drift_reported(self):
        s, buf = self.consistent()
        s._working.discard(1)
        errors = s.consistency_errors(buf)
        assert len(errors) == 1 and "chips with work" in errors[0]

    def test_buffer_block_outside_partition_reported(self):
        s, _ = self.consistent()
        errors = s.consistency_errors(
            StubBuffer({1: (4, 0), 2: (4, 2), 8: (1, 0), -1: (2, 0)})
        )
        assert errors == [
            "buffer block -1 outside partition [0, 7]",
            "buffer block 8 outside partition [0, 7]",
        ]

    def test_block_divergence_reported(self):
        s, buf = self.consistent()
        s.pwb[1] += 5
        errors = s.consistency_errors(buf)
        assert "block 1: scheduler (9,0) vs buffer (4,0)" in errors
        assert any("per-chip pending" in e for e in errors)


class TestSnapshotRestore:
    def test_round_trip_on_a_fresh_scheduler(self):
        s = make_scheduler(n_blocks=8, n_chips=2, m=2)
        s.add_buffered(np.array([0, 3, 4]), np.array([2, 5, 1]))
        s.add_spilled(3, 2)
        s.next_subgraph(1)
        s.reassign_blocks([4], [1])
        snap = s.state()
        s.take_walks(3)  # later history must not leak into the snapshot
        fresh = make_scheduler(n_blocks=8, n_chips=2, m=2)
        fresh.restore(snap)
        assert fresh.state() == snap
        assert fresh.total_pending == 8
        assert fresh.chips_with_work() == [0, 1]
        assert_chip_index_matches_scan(fresh)
        assert fresh.next_subgraph(1) == 3
