"""Tests for walk buffering: WalkBatch, the partition walk buffer's pool
and its entries, foreigner store."""

import numpy as np
import pytest

from repro.common import BufferOverflowError, ReproError
from repro.core import ForeignerStore, PartitionWalkBuffer, WalkBatch
from repro.core.buffers import _FIRST_SLAB
from repro.walks import WalkSet


def walks(n, start=0):
    return WalkSet.start(np.arange(start, start + n), 6)


def push(pwb, block, ws, pre_edge=None):
    """One push of ``ws`` to one block."""
    return pwb.push(np.array([block]), np.array([len(ws)]), ws, pre_edge)


def srcs(batch):
    """Origins of a drained batch of records, in order."""
    assert type(batch.walks) is list
    return [r[0] for r in batch.walks]


def origins(batch):
    """Origins of a drained batch in either form, in order."""
    w = batch.walks
    return [r[0] for r in w] if type(w) is list else w.src.tolist()


def make(cap=8, dense_cap=12, n_blocks=10, first=0):
    is_dense = np.zeros(first + n_blocks, dtype=bool)
    is_dense[first + 3] = True
    return PartitionWalkBuffer(first, first + n_blocks - 1, cap, dense_cap, is_dense)


class TestWalkBatch:
    def test_plain(self):
        b = WalkBatch(walks(3))
        assert len(b) == 3
        assert b.pre_edge is None

    def test_with_pre_edge(self):
        b = WalkBatch(walks(2), np.array([5, 7]))
        np.testing.assert_array_equal(b.pre_edge, [5, 7])

    def test_pre_edge_misaligned(self):
        with pytest.raises(ReproError):
            WalkBatch(walks(2), np.array([5]))


class TestBlockEntry:
    """One block's entry: a slab of the pool, spilled walks first."""

    def test_push_and_drain(self):
        pwb = make(cap=100)
        push(pwb, 4, walks(4))
        push(pwb, 4, walks(2, 10))
        batch, nb, ns = pwb.drain(4)
        assert (nb, ns) == (6, 0)
        assert srcs(batch) == [0, 1, 2, 3, 10, 11]
        assert pwb.counts(4) == (0, 0)

    def test_spill_overflow_fifo(self):
        pwb = make(cap=5)
        push(pwb, 4, walks(4))          # oldest
        assert push(pwb, 4, walks(4, 10)) == [(4, 4)]  # whole oldest push
        assert pwb.counts(4) == (4, 4)

    def test_spill_nothing_under_capacity(self):
        pwb = make(cap=10)
        assert push(pwb, 4, walks(3)) == []
        assert pwb.counts(4) == (3, 0)

    def test_drain_merges_both_sides(self):
        pwb = make(cap=4)
        push(pwb, 4, walks(4))
        push(pwb, 4, walks(4, 10))
        batch, nb, ns = pwb.drain(4)
        assert (nb, ns) == (4, 4)
        # Buffered walks first, then the spilled ones.
        assert srcs(batch) == [10, 11, 12, 13, 0, 1, 2, 3]

    def test_negative_capacity(self):
        with pytest.raises(BufferOverflowError):
            PartitionWalkBuffer(0, 3, -1, 1, np.zeros(4, dtype=bool))


class TestPartitionWalkBuffer:
    def test_push_within_capacity(self):
        pwb = make()
        assert push(pwb, 0, walks(5)) == []
        assert pwb.counts(0) == (5, 0)

    def test_push_overflow_spills(self):
        pwb = make(cap=8)
        push(pwb, 1, walks(6))
        spilled = push(pwb, 1, walks(6, 10))
        assert spilled == [(1, 6)]  # oldest push out
        assert pwb.spill_events == 1
        assert pwb.walks_spilled == 6

    def test_dense_entries_hold_more(self):
        pwb = make(cap=8, dense_cap=12)
        assert push(pwb, 3, walks(11)) == []
        assert push(pwb, 0, walks(9)) == [(0, 9)]

    def test_drain_removes_entry(self):
        pwb = make()
        push(pwb, 2, walks(4))
        batch, nb, ns = pwb.drain(2)
        assert (nb, ns) == (4, 0)
        assert pwb.counts(2) == (0, 0)
        assert pwb.total_walks == 0

    def test_drain_unknown_block_empty(self):
        pwb = make()
        batch, nb, ns = pwb.drain(7)
        assert (nb, ns) == (0, 0)

    def test_blocks_with_walks(self):
        pwb = make()
        push(pwb, 0, walks(1))
        push(pwb, 5, walks(1))
        assert sorted(pwb.blocks_with_walks()) == [0, 5]

    def test_out_of_partition_rejected(self):
        pwb = make(n_blocks=4)
        with pytest.raises(BufferOverflowError):
            push(pwb, 10, walks(1))

    def test_validation(self):
        with pytest.raises(BufferOverflowError):
            PartitionWalkBuffer(0, 3, 0, 1, np.zeros(4, dtype=bool))
        with pytest.raises(BufferOverflowError):
            PartitionWalkBuffer(4, 3, 1, 1, np.zeros(4, dtype=bool))

    def test_drain_plain_pushes_carry_no_pre_edge(self):
        pwb = make()
        push(pwb, 2, walks(2))
        push(pwb, 2, walks(3, 10))
        batch, nb, ns = pwb.drain(2)
        assert len(batch) == nb == 5
        assert batch.pre_edge is None

    def test_drain_mixed_pushes_pad_minus_one(self):
        pwb = make()
        push(pwb, 2, walks(2))
        push(pwb, 2, walks(1, 10), np.array([4]))
        batch, _, _ = pwb.drain(2)
        assert srcs(batch) == [0, 1, 10]
        assert batch.pre_edge == [-1, -1, 4]

    def test_drain_form_follows_the_cut(self):
        # At most SMALL_BATCH (16) walks drain as records, more as a WalkSet.
        pwb = make(cap=100)
        push(pwb, 2, walks(16))
        push(pwb, 5, walks(17, 100))
        assert srcs(pwb.drain(2)[0]) == list(range(16))
        big = pwb.drain(5)[0].walks
        assert type(big) is WalkSet
        np.testing.assert_array_equal(big.src, np.arange(100, 117))

    def test_drain_empty_entry(self):
        pwb = make()
        push(pwb, 2, walks(3))
        pwb.drain(2)
        batch, nb, ns = pwb.drain(2)
        assert len(batch) == 0 and (nb, ns) == (0, 0)

    def test_one_push_over_many_blocks(self):
        # Enough groups for the scatter path, one of them overflowing.
        pwb = make(cap=3)
        blocks = np.array([0, 1, 2, 4, 5, 6])
        counts = np.array([1, 2, 3, 4, 1, 2])
        assert pwb.push(blocks, counts, walks(13)) == [(4, 4)]
        assert [pwb.counts(b) for b in blocks] == [
            (1, 0), (2, 0), (3, 0), (0, 4), (1, 0), (2, 0)
        ]
        assert srcs(pwb.drain(4)[0]) == [6, 7, 8, 9]
        assert srcs(pwb.drain(6)[0]) == [11, 12]

    def test_slab_grows_and_is_reused(self):
        pwb = make(cap=1000)
        for k in range(6):  # 6 x 7 walks: several moves to bigger slabs
            push(pwb, 5, walks(7, 7 * k))
        push(pwb, 6, walks(2, 100))
        batch, nb, _ = pwb.drain(5)
        np.testing.assert_array_equal(batch.walks.src, np.arange(42))
        base = int(pwb._base[5])
        push(pwb, 5, walks(3, 200))
        assert int(pwb._base[5]) == base  # the drained slab is reused
        assert srcs(pwb.drain(5)[0]) == [200, 201, 202]
        assert srcs(pwb.drain(6)[0]) == [100, 101]

    def test_churn_keeps_the_pool_bounded(self):
        # Round by round, 300 walks go to one block of 32 and are
        # drained again.  A compaction cuts each drained slab back to
        # its first size, so the pool stays within a small multiple of
        # the live walks plus every entry's first slab; without it,
        # each round's grown slab is new space at the top of the pool.
        pwb = make(cap=1000, dense_cap=1000, n_blocks=32)
        bound = 6 * (300 + pwb.n_blocks * _FIRST_SLAB)
        serial = 0
        for r in range(96):
            block = r % pwb.n_blocks
            for _ in range(10):
                push(pwb, block, walks(30, serial))
                serial += 30
            batch, nb, ns = pwb.drain(block)
            assert (nb, ns) == (300, 0)
            assert origins(batch) == list(range(serial - 300, serial))
            assert pwb._head.size <= bound

    @pytest.mark.parametrize("as_records", [False, True])
    def test_later_grow_moves_an_earlier_group(self, as_records):
        # Four first slabs fill slots 0..32 of a 64-slot pool.  Block 0
        # grows to a 16-slot slab at 32, leaving a hole at 0.
        pwb = make(cap=1000, dense_cap=1000, n_blocks=4)
        push(pwb, 0, walks(12))
        assert (pwb._base[0], pwb._head.size) == (32, 64)
        # Block 0's group fits its slab; block 2's needs 30 slots, finds
        # no room at the top, and compaction slides block 0's slab back.
        # Block 3's group then grows without compacting.
        ws = walks(41, 100)
        pwb.push([0, 2, 3], [2, 30, 9], ws.records() if as_records else ws)
        assert pwb._base[0] < 32
        assert pwb._head.size == 128
        assert pwb.counts(0) == (14, 0)
        assert origins(pwb.drain(0)[0]) == [*range(12), 100, 101]
        assert origins(pwb.drain(2)[0]) == list(range(102, 132))
        assert origins(pwb.drain(3)[0]) == list(range(132, 141))
        assert pwb.total_walks == 0

    def test_reused_slab_forgets_old_push_starts(self):
        pwb = make(cap=3)
        for k in range(3):
            push(pwb, 2, walks(1, k))     # push starts at slots 0, 1, 2
        pwb.drain(2)
        push(pwb, 2, walks(3, 10))        # one push over the same slots
        # Overflow spills the whole three-walk push, not part of it.
        assert push(pwb, 2, walks(1, 20)) == [(2, 3)]
        assert pwb.counts(2) == (1, 3)

    def test_drained_walks_survive_later_pushes(self):
        pwb = make()
        push(pwb, 2, walks(3))
        batch, _, _ = pwb.drain(2)
        push(pwb, 2, walks(3, 50))
        assert srcs(batch) == [0, 1, 2]

    def test_snapshot_restores_entries_and_spill_order(self):
        pwb = make(cap=4)
        push(pwb, 2, walks(3))
        push(pwb, 2, walks(3, 10), np.array([7, 8, 9]))  # spills the first
        push(pwb, 5, walks(20, 100))                      # grown slab
        state = pwb.state()
        pwb.drain(2)
        push(pwb, 5, walks(1, 500))
        for _ in range(2):  # a snapshot can be restored more than once
            fresh = make(cap=4)
            fresh.restore(state)
            assert (fresh.spill_events, fresh.walks_spilled) == (2, 23)
            batch, nb, ns = fresh.drain(2)
            assert (nb, ns) == (3, 3)
            assert srcs(batch) == [10, 11, 12, 0, 1, 2]
            assert batch.pre_edge == [7, 8, 9, -1, -1, -1]
            push(fresh, 5, walks(1, 900))
            assert fresh.counts(5) == (1, 20)
            np.testing.assert_array_equal(
                fresh.drain(5)[0].walks.src, [900, *range(100, 120)]
            )

    @pytest.mark.parametrize("block", [-1, 1, 12])
    def test_outside_partition_raises_everywhere(self, block):
        # Blocks 2..11; a block below first_block gives a negative
        # local index, which must not wrap into the last slot.
        pwb = make(n_blocks=10, first=2)
        with pytest.raises(BufferOverflowError):
            push(pwb, block, walks(1))
        with pytest.raises(BufferOverflowError):
            pwb.drain(block)
        with pytest.raises(BufferOverflowError):
            pwb.counts(block)
        wide = np.array([block, 3, 4, 5, 6, 7]) if block < 2 else np.arange(7, 13)
        with pytest.raises(BufferOverflowError):
            pwb.push(wide, np.ones(6, dtype=np.int64), walks(6))
        assert pwb.total_walks == 0

    def test_unsorted_scatter_push_rejected(self):
        pwb = make()
        with pytest.raises(BufferOverflowError):
            pwb.push(
                np.array([5, 1, 2, 3, 4]), np.ones(5, dtype=np.int64), walks(5)
            )

    def test_push_with_no_groups_changes_nothing(self):
        pwb = make()
        push(pwb, 2, walks(3))
        none = np.zeros(0, dtype=np.int64)
        assert pwb.push(none, none, WalkSet.empty()) == []
        assert pwb.push([], [], WalkSet.empty()) == []
        assert pwb.counts(2) == (3, 0)
        assert pwb.total_walks == 3
        with pytest.raises(ReproError):
            pwb.push(none, none, walks(1))

    def test_list_push_matches_array_push(self):
        a, b = make(cap=3), make(cap=3)
        ws = walks(7)
        blocks, counts = [1, 3, 4], [2, 4, 1]
        assert a.push(np.array(blocks), np.array(counts), ws) == b.push(
            blocks, counts, ws
        )
        for block in blocks:
            (wa, na, sa), (wb, nb, sb) = a.drain(block), b.drain(block)
            assert (na, sa) == (nb, sb)
            assert wa.walks == wb.walks


class TestForeignerStore:
    def test_push_and_drain(self):
        fs = ForeignerStore(3)
        fs.push(1, walks(4))
        fs.push(1, walks(2, 10))
        assert fs.count(1) == 6
        out = fs.drain(1)
        assert len(out) == 6
        assert fs.count(1) == 0

    def test_empty_pushes_ignored(self):
        fs = ForeignerStore(2)
        fs.push(0, WalkSet.empty())
        assert fs.total == 0

    def test_partitions_with_walks(self):
        fs = ForeignerStore(4)
        fs.push(2, walks(1))
        fs.push(0, walks(1))
        np.testing.assert_array_equal(fs.partitions_with_walks(), [0, 2])

    def test_total(self):
        fs = ForeignerStore(2)
        fs.push(0, walks(3))
        fs.push(1, walks(4))
        assert fs.total == 7

    def test_bounds(self):
        fs = ForeignerStore(2)
        with pytest.raises(ReproError):
            fs.push(5, walks(1))
        with pytest.raises(ReproError):
            fs.drain(-1)
        with pytest.raises(BufferOverflowError):
            ForeignerStore(0)
