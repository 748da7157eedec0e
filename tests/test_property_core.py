"""Property-based tests for core data structures and invariants."""

import contextlib
import copy
import functools
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    FaultConfig,
    FlashWalkerConfig,
    PartitionError,
    ReproError,
    RngRegistry,
    SimulationError,
)
from repro.core import (
    BloomFilter,
    DenseVertexTable,
    FlashWalker,
    PartitionWalkBuffer,
    SubgraphScheduler,
    WalkBatch,
    WalkQueryCache,
)
import repro.core.chip_accel as chip_accel_mod
import repro.core.flashwalker as flashwalker_mod
from repro.core.advance import SMALL_BATCH
from repro.graph import CSRGraph, partition_graph, rmat
from repro.sim import BandwidthLink, FcfsResource, Simulator
from repro.walks import WalkSet, WalkSpec
from repro.walks.state import as_records, as_walkset, concat_walks

_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)


def ref_splitmix(x: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized splitmix64 finalizer, the filter's hash reference."""
    stride = (seed * 0x9E3779B97F4A7C15 + 1) & 0xFFFFFFFFFFFFFFFF
    z = x.astype(np.uint64) + np.uint64(stride)
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def ref_positions(keys: np.ndarray, n_bits: int, n_hashes: int) -> np.ndarray:
    """(n_keys, n_hashes) bit positions by double hashing in uint64."""
    keys = np.asarray(keys, dtype=np.int64)
    h1 = ref_splitmix(keys, 1)
    h2 = ref_splitmix(keys, 2) | np.uint64(1)
    i = np.arange(n_hashes, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(n_bits)).astype(
        np.int64
    )


def ref_bits(keys, n_bits: int, n_hashes: int) -> np.ndarray:
    """The uint64 words a filter holding ``keys`` sets."""
    bits = np.zeros((n_bits + 63) // 64, dtype=np.uint64)
    pos = ref_positions(keys, n_bits, n_hashes).ravel()
    np.bitwise_or.at(bits, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64))
    return bits


def ref_contains(bits: np.ndarray, keys, n_bits: int, n_hashes: int) -> np.ndarray:
    """Membership of each key in the filter whose words are ``bits``."""
    pos = ref_positions(keys, n_bits, n_hashes)
    words = bits[pos >> 6] >> (pos & 63).astype(np.uint64)
    return (words & np.uint64(1)).astype(bool).all(axis=1)


class TestBloomProperties:
    @given(
        st.lists(st.integers(0, 2**40), min_size=1, max_size=200, unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives_ever(self, keys):
        bf = BloomFilter.for_capacity(len(keys))
        arr = np.array(keys, dtype=np.int64)
        bf.add(arr)
        assert np.all(bf.contains(arr))

    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_adds(self, keys):
        a = BloomFilter(512, 3)
        b = BloomFilter(512, 3)
        arr = np.array(keys, dtype=np.int64)
        a.add(arr)
        b.add(arr)
        b.add(arr)  # adding twice changes nothing
        np.testing.assert_array_equal(a._bits, b._bits)

    @given(
        st.lists(st.integers(0, 2**62), max_size=60),
        st.lists(st.integers(0, 2**62), max_size=60),
        st.integers(8, 4096),
        st.integers(1, 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_vectorized_reference(self, keys, probes, n_bits, n_hashes):
        bf = BloomFilter(n_bits, n_hashes)
        bf.add(np.array(keys, dtype=np.int64))
        want = ref_bits(np.array(keys, dtype=np.int64), n_bits, n_hashes)
        np.testing.assert_array_equal(np.array(bf._bits, dtype=np.uint64), want)
        queries = np.array(keys + probes, dtype=np.int64)
        np.testing.assert_array_equal(
            bf.contains(queries), ref_contains(want, queries, n_bits, n_hashes)
        )
        assert [bf.contains(k) for k in probes] == ref_contains(
            want, np.array(probes, dtype=np.int64), n_bits, n_hashes
        ).tolist()


@st.composite
def dense_classify_cases(draw):
    """A partitioning with 0-4 dense hubs, a filter size that makes
    false positives likely, and a sequence of classify calls whose
    vertices repeat within and across calls."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # 40-90 out-edges overflow a 128-byte block, so a hub becomes dense.
    deg = rng.integers(0, 5, size=n)
    deg[rng.choice(n, size=draw(st.integers(0, min(4, n))), replace=False)] = (
        rng.integers(40, 90)
    )
    src = np.repeat(np.arange(n), deg)
    g = CSRGraph.from_edge_list(src, rng.integers(0, n, size=src.size), n)
    calls = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=24), max_size=8))
    return partition_graph(g, 128), draw(st.integers(1, 10)), calls


class TestDenseClassifyProperties:
    @staticmethod
    def reference(table, calls):
        """Memo-free classify: every query goes through the reference
        filter; returns the masks and the four counters."""
        dense = np.array(sorted(table.meta), dtype=np.int64)
        n_bits, k = table.bloom.n_bits, table.bloom.n_hashes
        bits = ref_bits(dense, n_bits, k)
        masks, queries, positives, false_pos = [], 0, 0, 0
        for call in calls:
            v = np.array(call, dtype=np.int64)
            maybe = ref_contains(bits, v, n_bits, k)
            real = np.isin(v, dense)
            masks.append((maybe & real).tolist())
            queries += v.size
            positives += int(maybe.sum())
            false_pos += int((maybe & ~real).sum())
        return masks, (queries, positives, false_pos, positives)

    @staticmethod
    def counters(table):
        return (
            table.bloom_queries,
            table.bloom_positives,
            table.false_positives,
            table.hash_probes,
        )

    @given(dense_classify_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_memo_free_reference(self, case):
        part, bits_per_item, calls = case
        table = DenseVertexTable(part, bits_per_item)
        got = [table.classify(np.array(c, dtype=np.int64)).tolist() for c in calls]
        masks, counters = self.reference(table, calls)
        assert got == masks
        assert self.counters(table) == counters

    @given(dense_classify_cases(), st.lists(st.booleans(), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_list_calls_match_array_calls(self, case, as_list):
        """A list of ints gets the array call's mask as a list of bools
        and the same counter increments, calls of both kinds mixed."""
        part, bits_per_item, calls = case
        lists = DenseVertexTable(part, bits_per_item)
        arrays = DenseVertexTable(part, bits_per_item)
        for c, use_list in zip(calls, as_list + [True] * len(calls)):
            want = arrays.classify(np.array(c, dtype=np.int64)).tolist()
            got = lists.classify(list(c) if use_list else np.array(c, dtype=np.int64))
            assert (got if use_list else got.tolist()) == want
            assert self.counters(lists) == self.counters(arrays)
        with pytest.raises(ReproError):
            lists.classify([0, part.graph.num_vertices])
        with pytest.raises(ReproError):
            lists.classify([-1])

    @given(dense_classify_cases(), st.integers(0, 2**20), st.data())
    @settings(max_examples=50, deadline=None)
    def test_pre_walk_list_matches_array(self, case, seed, data):
        """A list of dense vertices pre-walks to the array call's blocks
        and offsets, as lists of ints, from the same draws; a non-dense
        vertex fails both before any draw."""
        part = case[0]
        table = DenseVertexTable(part)
        dense = sorted(int(v) for v in table.meta)
        v = data.draw(st.lists(st.sampled_from(dense), max_size=SMALL_BATCH)) if dense else []
        rl, ra = np.random.default_rng(seed), np.random.default_rng(seed)
        got = table.pre_walk(v, rl)
        want = table.pre_walk(np.array(v, dtype=np.int64), ra)
        assert (got.block, got.edge_offset) == (want.block.tolist(), want.edge_offset.tolist())
        assert all(type(x) is int for x in got.block + got.edge_offset)
        assert rl.bit_generator.state == ra.bit_generator.state
        plain = [x for x in range(part.graph.num_vertices) if x not in table.meta][:1]
        if plain:
            for bad in (v + plain, np.array(v + plain, dtype=np.int64)):
                before = rl.bit_generator.state
                with pytest.raises(ReproError):
                    table.pre_walk(bad, rl)
                assert rl.bit_generator.state == before

    @given(dense_classify_cases())
    @settings(max_examples=50, deadline=None)
    def test_warm_and_cold_tables_agree(self, case):
        part, bits_per_item, calls = case
        warm = DenseVertexTable(part, bits_per_item)
        for c in calls:
            warm.classify(np.array(c, dtype=np.int64))
        before = self.counters(warm)
        cold = DenseVertexTable(part, bits_per_item)
        last = np.array([v for c in calls for v in c], dtype=np.int64)
        np.testing.assert_array_equal(warm.classify(last), cold.classify(last))
        delta = tuple(a - b for a, b in zip(self.counters(warm), before))
        assert delta == self.counters(cold)


class TestQueryCacheProperties:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_queries(self, blocks):
        c = WalkQueryCache(8)
        total_h = total_m = 0
        for chunk_start in range(0, len(blocks), 7):
            chunk = np.array(blocks[chunk_start : chunk_start + 7])
            h, m = c.probe_batch(chunk)
            total_h += h
            total_m += m
        assert total_h + total_m == len(blocks)
        assert c.hits == total_h and c.misses == total_m

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_cache_large_enough_never_re_misses(self, blocks):
        c = WalkQueryCache(16)  # more entries than distinct keys
        for b in blocks:
            c.probe(b)
        assert c.misses == len(set(blocks))


class RefScheduler:
    """The NumPy scoreboard the scheduler used to be, kept as the
    oracle: whole-partition arrays, Eq. 1 recomputed per refresh, a
    stable argsort on the negated key, ``np.bincount`` owners."""

    def __init__(self, block_chip, is_dense_block, first_block, last_block,
                 n_chips, alpha, beta, top_n, update_period_m, use_scores):
        self.first_block = first_block
        self.n_blocks = last_block - first_block + 1
        self.block_chip = np.array(
            block_chip[first_block : last_block + 1], dtype=np.int64
        )
        is_dense = np.asarray(is_dense_block[first_block : last_block + 1], dtype=bool)
        self.factor = np.where(is_dense, 1, beta)
        self.n_chips = n_chips
        self.alpha = alpha
        self.top_n = top_n
        self.m = update_period_m
        self.use_scores = use_scores
        self.pwb = np.zeros(self.n_blocks, dtype=np.int64)
        self.fl = np.zeros(self.n_blocks, dtype=np.int64)
        self.inserts = np.zeros(self.n_blocks, dtype=np.int64)
        self.index_chips()
        self._top = {c: [] for c in range(n_chips)}
        self._dirty = set(range(n_chips))
        self.topn_refreshes = 0
        self.topn_updates_deferred = 0

    def index_chips(self):
        order = np.argsort(self.block_chip, kind="stable")
        ends = np.cumsum(np.bincount(self.block_chip, minlength=self.n_chips))
        self.chip_blocks = np.split(order, ends[:-1])

    def add_buffered(self, block_ids, counts=1):
        idx = np.atleast_1d(np.asarray(block_ids, dtype=np.int64)) - self.first_block
        counts = np.asarray(counts, dtype=np.int64)
        if idx.size == 0:
            return
        self.pwb[idx] += counts
        inserts = self.inserts[idx] + counts
        due = inserts >= self.m
        inserts[due] = 0
        self.inserts[idx] = inserts
        n_due = int(np.count_nonzero(due))
        if n_due:
            self._dirty.update(self.block_chip[idx[due]].tolist())
        self.topn_updates_deferred += idx.size - n_due

    def add_spilled(self, block_id, count):
        idx = block_id - self.first_block
        self.pwb[idx] -= count
        self.fl[idx] += count
        self._dirty.add(int(self.block_chip[idx]))

    def take_walks(self, block_id):
        idx = block_id - self.first_block
        pwb, fl = int(self.pwb[idx]), int(self.fl[idx])
        self.pwb[idx] = self.fl[idx] = self.inserts[idx] = 0
        self._dirty.add(int(self.block_chip[idx]))
        return pwb, fl

    @property
    def total_pending(self):
        return int(self.pwb.sum() + self.fl.sum())

    def _refresh_top(self, chip):
        counts = self.pwb + self.fl
        mine = self.chip_blocks[chip]
        candidates = mine[counts[mine] > 0]
        if candidates.size == 0:
            self._top[chip] = []
        else:
            scores = (self.pwb * self.alpha + self.fl) * self.factor
            key = scores if self.use_scores else counts
            order = np.argsort(-key[candidates], kind="stable")
            self._top[chip] = candidates[order][: self.top_n].tolist()
        self.topn_refreshes += 1
        self._dirty.discard(chip)

    def next_subgraph(self, chip, exclude=None):
        exclude = exclude or set()
        counts = self.pwb + self.fl
        for _ in range(2):
            if chip in self._dirty or not self._top[chip]:
                self._refresh_top(chip)
            for idx in self._top[chip]:
                if counts[idx] > 0 and (idx + self.first_block) not in exclude:
                    return idx + self.first_block
            if chip not in self._dirty:
                self._dirty.add(chip)
            else:
                break
        return None

    def reassign_blocks(self, block_ids, new_chips):
        moved = False
        for bid, chip in zip(block_ids, new_chips):
            idx = int(bid) - self.first_block
            old = int(self.block_chip[idx])
            if old == chip:
                continue
            self.block_chip[idx] = chip
            moved = True
            self._dirty.add(old)
            self._dirty.add(int(chip))
        if moved:
            self.index_chips()

    def chips_with_work(self):
        owners = np.bincount(
            self.block_chip[(self.pwb + self.fl) > 0], minlength=self.n_chips
        )
        return np.flatnonzero(owners)


@st.composite
def scheduler_runs(draw):
    """A partition (owners, dense flags, Eq. 1 weights, SS on or off)
    and a random sequence of scheduler operations on it."""
    n_chips = draw(st.integers(1, 4))
    first = draw(st.integers(0, 3))
    n_blocks = draw(st.integers(1, 10))
    last = first + n_blocks - 1
    owners = draw(st.lists(st.integers(0, n_chips - 1),
                           min_size=last + 1, max_size=last + 1))
    dense = draw(st.lists(st.booleans(), min_size=last + 1, max_size=last + 1))
    params = dict(
        block_chip=np.array(owners, dtype=np.int64),
        is_dense_block=np.array(dense),
        first_block=first,
        last_block=last,
        n_chips=n_chips,
        # Weights that round (0.1, 0.3) and weights that tie (1.0).
        alpha=draw(st.sampled_from([0.1, 0.4, 1.0, 1.2, 3.0])),
        beta=draw(st.sampled_from([0.3, 1.0, 1.5, 2.0])),
        top_n=draw(st.integers(1, 4)),
        update_period_m=draw(st.integers(1, 4)),
        use_scores=draw(st.booleans()),
    )
    block = st.integers(first, last)
    chip = st.integers(0, n_chips - 1)
    ops = st.one_of(
        st.tuples(st.just("add"), block, st.integers(0, 6)),
        st.tuples(st.just("add_many"),
                  st.lists(st.tuples(block, st.integers(0, 6)), max_size=6),
                  st.booleans()),
        st.tuples(st.just("spill"), block, st.integers(0, 6)),
        st.tuples(st.just("take"), block),
        st.tuples(st.just("next"), chip, st.frozensets(block, max_size=3)),
        st.tuples(st.just("reassign"),
                  st.lists(st.tuples(block, chip), max_size=4)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
    )
    return params, draw(st.lists(ops, min_size=20, max_size=80))


class TestSchedulerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 50)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pending_conservation(self, inserts):
        s = SubgraphScheduler(
            block_chip=np.arange(16) % 4,
            is_dense_block=np.zeros(16, dtype=bool),
            first_block=0,
            last_block=15,
            n_chips=4,
            alpha=1.2,
            beta=1.5,
            top_n=4,
            update_period_m=4,
        )
        total = 0
        for block, count in inserts:
            s.add_buffered(block, count)
            total += count
        assert s.total_pending == total
        # draining every block empties the scoreboard
        drained = 0
        for chip in range(4):
            while True:
                blk = s.next_subgraph(chip)
                if blk is None:
                    break
                nb, ns = s.take_walks(blk)
                drained += nb + ns
        assert drained == total
        assert s.total_pending == 0

    @given(st.integers(1, 40), st.integers(0, 39))
    @settings(max_examples=40, deadline=None)
    def test_scores_nonnegative(self, buffered, spilled):
        spilled = min(spilled, buffered)
        s = SubgraphScheduler(
            block_chip=np.zeros(4, dtype=np.int64),
            is_dense_block=np.array([False, True, False, True]),
            first_block=0,
            last_block=3,
            n_chips=1,
            alpha=0.4,
            beta=1.5,
            top_n=2,
            update_period_m=2,
        )
        s.add_buffered(0, buffered)
        s.add_spilled(0, spilled)
        assert all(s.score(b) >= 0 for b in range(4))

    @given(scheduler_runs())
    @settings(max_examples=150, deadline=None)
    def test_matches_array_oracle(self, run):
        """The plain-int scheduler answers every call as the NumPy one
        did: same picks, topN lists, dirty chips and counters."""
        params, ops = run
        s, ref = SubgraphScheduler(**params), RefScheduler(**params)
        saved = None
        for op in ops:
            kind = op[0]
            if kind == "add":
                s.add_buffered(op[1], op[2])
                ref.add_buffered(op[1], op[2])
            elif kind == "add_many":
                pairs = sorted(dict(op[1]).items())
                blocks = np.array([b for b, _ in pairs], dtype=np.int64)
                counts = np.array([c for _, c in pairs], dtype=np.int64)
                if op[2] and pairs:
                    counts = pairs[0][1]  # one count for every block
                s.add_buffered(blocks, counts)
                ref.add_buffered(blocks, counts)
            elif kind == "spill":
                n = min(op[2], int(ref.pwb[op[1] - ref.first_block]))
                s.add_spilled(op[1], n)
                ref.add_spilled(op[1], n)
            elif kind == "take":
                assert s.take_walks(op[1]) == ref.take_walks(op[1])
            elif kind == "next":
                exclude = set(op[2]) or None
                assert s.next_subgraph(op[1], exclude) == ref.next_subgraph(
                    op[1], exclude
                )
            elif kind == "reassign":
                blocks = [b for b, _ in op[1]]
                chips = [c for _, c in op[1]]
                s.reassign_blocks(np.array(blocks, dtype=np.int64), chips)
                ref.reassign_blocks(blocks, chips)
            elif kind == "snapshot":
                saved = (s.snapshot(), copy.deepcopy(ref))
            elif saved is not None:
                # Restore into a new scheduler, as a checkpoint restore
                # does; a snapshot may be restored more than once.
                s = SubgraphScheduler(**params)
                s.restore(saved[0])
                ref = copy.deepcopy(saved[1])
            assert s._top == [ref._top[c] for c in range(ref.n_chips)], op
            assert s._dirty == ref._dirty, op
            assert s.chips_with_work() == ref.chips_with_work().tolist(), op
            assert s.total_pending == ref.total_pending, op
            assert s.topn_refreshes == ref.topn_refreshes, op
            assert s.topn_updates_deferred == ref.topn_updates_deferred, op
            assert s.pwb == ref.pwb.tolist() and s.fl == ref.fl.tolist(), op
            assert s._inserts_since_update == ref.inserts.tolist(), op


class _FifoEntries:
    """Reference model of the partition walk buffer: per block, lists of
    pushed batches (``(src, cur, hop, pre_edge)``, pre_edge None when the
    push carried none), the oldest whole batches moved to the spilled
    list while the buffered side exceeds capacity.  A drain concatenates
    buffered then spilled batches; its pre_edge is None when no batch
    carried one, else -1 where a batch carried none."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.buffered = {}
        self.spilled = {}
        self.spill_events = 0
        self.walks_spilled = 0

    @staticmethod
    def size(batches):
        return sum(len(b[0]) for b in batches)

    def push(self, block, batch):
        buf = self.buffered.setdefault(block, [])
        spl = self.spilled.setdefault(block, [])
        buf.append(batch)
        moved = 0
        while self.size(buf) > self.capacity(block) and buf:
            b = buf.pop(0)
            spl.append(b)
            moved += len(b[0])
        if moved:
            self.spill_events += 1
            self.walks_spilled += moved
        return moved

    def counts(self, block):
        return (
            self.size(self.buffered.get(block, [])),
            self.size(self.spilled.get(block, [])),
        )

    def drain(self, block):
        nb, ns = self.counts(block)
        batches = self.buffered.pop(block, []) + self.spilled.pop(block, [])
        cols = [
            np.concatenate([b[i] for b in batches] + [np.zeros(0, np.int64)])
            for i in range(3)
        ]
        pre = None
        if any(b[3] is not None for b in batches):
            pre = np.concatenate(
                [np.full(len(b[0]), -1) if b[3] is None else b[3] for b in batches]
            )
        return cols, pre, nb, ns


FIRST, LAST = 3, 7
# (op, blocks -> counts or a block, with pre_edge, as records)
_push_op = st.tuples(
    st.just("push"),
    st.dictionaries(st.integers(FIRST, LAST), st.integers(1, 12), min_size=1),
    st.booleans(),
    st.booleans(),
)
_drain_op = st.tuples(
    st.just("drain"), st.integers(FIRST, LAST), st.just(False), st.just(False)
)


class TestBufferProperties:
    @given(
        st.lists(st.one_of(_push_op, _push_op, _drain_op), min_size=1, max_size=40),
        st.integers(1, 6),
        st.integers(1, 10),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_pool_matches_list_fifo_model(self, ops, cap, dense_cap, as_lists):
        """Multi-group pushes (of records or of a WalkSet, both array
        paths, blocks and counts as arrays or lists), spills at tiny
        capacities, slab growth and reuse, and drains (records up to
        SMALL_BATCH walks, arrays above) give exactly what a
        list-of-batches FIFO gives."""
        is_dense = np.zeros(LAST + 1, dtype=bool)
        is_dense[[FIRST, 6]] = True
        pwb = PartitionWalkBuffer(FIRST, LAST, cap, dense_cap, is_dense)
        model = _FifoEntries(lambda b: dense_cap if is_dense[b] else cap)
        serial = 0
        for op, arg, with_pre, records in ops:
            if op == "push":
                blocks = np.array(sorted(arg), dtype=np.int64)
                counts = np.array([arg[b] for b in blocks], dtype=np.int64)
                n = int(counts.sum())
                ids = np.arange(serial, serial + n, dtype=np.int64)
                serial += n
                ws = WalkSet(ids, ids * 7 + 1, ids % 5)
                pre = ids * 3 if with_pre else None
                expected = []
                s = 0
                for b, k in zip(blocks.tolist(), counts.tolist()):
                    moved = model.push(
                        b,
                        (ws.src[s : s + k], ws.cur[s : s + k], ws.hop[s : s + k],
                         None if pre is None else pre[s : s + k]),
                    )
                    if moved:
                        expected.append((b, moved))
                    s += k
                if as_lists:
                    blocks, counts = blocks.tolist(), counts.tolist()
                if records:
                    ws = ws.records()
                    pre = None if pre is None else pre.tolist()
                assert pwb.push(blocks, counts, ws, pre) == expected
            else:
                batch, nb, ns = pwb.drain(arg)
                cols, pre, mnb, mns = model.drain(arg)
                assert (nb, ns) == (mnb, mns)
                w = batch.walks
                if nb + ns <= SMALL_BATCH:
                    assert type(w) is list
                    assert w == list(zip(*(c.tolist() for c in cols)))
                    assert batch.pre_edge is None or type(batch.pre_edge) is list
                else:
                    assert type(w) is WalkSet
                    for got, want in zip((w.src, w.cur, w.hop), cols):
                        np.testing.assert_array_equal(got, want)
                if pre is None:
                    assert batch.pre_edge is None
                else:
                    np.testing.assert_array_equal(batch.pre_edge, pre)
            for b in range(FIRST, LAST + 1):
                assert pwb.counts(b) == model.counts(b)
            assert pwb.spill_events == model.spill_events
            assert pwb.walks_spilled == model.walks_spilled
            assert pwb.occupancy_errors() == []
        assert pwb.total_walks == sum(sum(model.counts(b)) for b in range(FIRST, LAST + 1))


class TestResourceProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 2)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fcfs_never_overlaps_more_than_servers(self, reqs):
        # Issue in non-decreasing time order, then verify the busy-time
        # accounting: total busy <= servers * horizon.
        reqs = sorted(reqs)
        r = FcfsResource("r", 2)
        horizon = 0.0
        for now, dur in reqs:
            end = r.acquire_for(now, dur)
            assert end >= now + dur - 1e-12
            horizon = max(horizon, end)
        if horizon > 0:
            assert r.busy_time <= 2 * horizon + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.integers(0, 10_000)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_link_conserves_bytes(self, reqs):
        reqs = sorted(reqs)
        link = BandwidthLink("l", 1e6)
        last_end = 0.0
        for now, nbytes in reqs:
            end = link.transfer(now, nbytes)
            assert end >= last_end - 1e-12  # FIFO order
            last_end = end
        assert link.bytes_moved == sum(n for _, n in reqs)


class TestSimulatorProperties:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_order(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)
        assert sim.events_executed == len(times)


# Board direction: the scalar path (batches of at most SMALL_BATCH walks)
# against the vector path, from the same engine state.

_DIRECT_LENGTH = 4


@functools.lru_cache(maxsize=None)
def _direct_graph():
    """A 256-vertex RMAT graph that 256-byte blocks cut into 50 blocks,
    7 of its vertices dense."""
    return rmat(8, 8, RngRegistry(5).fresh("g"))


def _direct_engine(hs: bool, wq: bool, stop: float) -> FlashWalker:
    """An engine with two partitions, board- and channel-hot blocks, one
    hot dense vertex, two-walk buffer entries (so inserts spill) and two
    two-entry query caches (so probe order shows), its session
    started."""
    g = _direct_graph()
    cfg = FlashWalkerConfig().replace(
        subgraph_bytes=256,
        partition_subgraphs=25,
        board_hot_subgraphs=2,
        channel_hot_subgraphs=1,
        board_hot_dense_vertices=1,
        pwb_entry_walks=2,
        range_subgraphs=4,
        n_query_caches=2,
        query_cache_bytes=32,
        opt_hot_subgraphs=hs,
        opt_walk_query=wq,
    )
    fw = FlashWalker(g, cfg, seed=1)
    fw.start_session(WalkSpec(length=_DIRECT_LENGTH, stop_probability=stop))
    fw.completions = []
    fw._on_completed = lambda t, w: fw.completions.append((t, as_records(w)))
    return fw


@functools.lru_cache(maxsize=None)
def _direct_vertices() -> tuple[int, ...]:
    """Vertices that reach each branch of the board path: dense ones
    (one of them hot), ones in board- and channel-hot blocks and ones
    in the second partition (foreigners), and the two vertices either
    side of the partitions' boundary."""
    fw = _direct_engine(True, True, 0.0)
    part = fw.part
    picked = set(part.dense_meta)
    hot = list(fw.board.hot_blocks) + [b for ch in fw.channels for b in ch.hot_blocks]
    for b in hot + [30, 40]:
        picked.update(range(int(part.block_lo[b]), int(part.block_hi[b]) + 1))
    # The partitions' boundary.
    picked.update((int(part.block_hi[24]), int(part.block_lo[25])))
    return tuple(sorted(picked))


@st.composite
def direct_batches(draw, min_size=1):
    nv = _direct_graph().num_vertices
    n = draw(st.integers(min_size, SMALL_BATCH))
    vertex = st.sampled_from(_direct_vertices()) | st.integers(0, nv - 1)
    cols = [
        draw(st.lists(st.integers(0, nv - 1), min_size=n, max_size=n)),
        draw(st.lists(vertex, min_size=n, max_size=n)),
        draw(st.lists(st.integers(1, _DIRECT_LENGTH), min_size=n, max_size=n)),
    ]
    return WalkSet(*(np.array(c, dtype=np.int64) for c in cols))


def _direct_state(fw: FlashWalker) -> dict:
    """Everything a board batch can change, as plain values (drains the
    walk buffer and the foreigner store)."""
    stream_names = ["board", "prewalk"] + [f"channel{c}" for c in range(len(fw.channels))]
    caches = fw.board.caches
    pwb = []
    for block in range(fw.pwb.first_block, fw.pwb.last_block + 1):
        batch, nb, ns = fw.pwb.drain(block)
        pre = batch.pre_edge
        if pre is not None:
            pre = list(pre) if type(pre) is list else pre.tolist()
        pwb.append((as_records(batch.walks), pre, nb, ns))
    foreign = []
    for pid in range(fw.n_partitions):
        w = fw.foreign.drain(pid)
        foreign.append((w.src.tolist(), w.cur.tolist(), w.hop.tolist()))
    dense = fw.dense_table
    board = fw.board
    return {
        "pwb": pwb,
        "scheduler": fw.scheduler.snapshot(),
        "foreign": foreign,
        "counters": fw.metrics.stats.snapshot(),
        "dense": (dense.bloom_queries, dense.bloom_positives,
                  dense.false_positives, dense.hash_probes),
        "mapping": (fw.mapping.lookups, fw.mapping.search_steps_total),
        "board": (board.batches, board.hops, board.directed_walks,
                  board.completed_flushes, board.foreigner_flushes,
                  board.completed_pending_bytes, board.foreigner_pending_bytes),
        "caches": None if caches is None else [
            (c.hits, c.misses, c.entries()) for c in caches.caches
        ],
        "rng": [fw.rngs.stream(name).bit_generator.state for name in stream_names],
        "in_transit": fw.in_transit,
        "completed": (fw.completed_walks, fw.completions),
        "events": sorted(
            e[:3] for e in fw.sim._queue if e[2] not in fw.sim._cancelled
        ),
    }


def _vector_pre_walk(self, t, dense, busy):
    """Reference for ``FlashWalker._pre_walk``: the engine's earlier
    NumPy pre-walk (array ``DenseVertexTable.pre_walk``, array buffer
    insert), on the records ``dense``; returns the surviving walks as
    records."""
    m = self.metrics
    dense_walks = WalkSet.from_records(dense)
    survivors = WalkSet.empty()
    pw = self.dense_table.pre_walk(dense_walks.cur, self.rngs.stream("prewalk"))
    m.pre_walks.add(len(dense_walks))
    at_hot = np.isin(dense_walks.cur, sorted(self._hot_dense))
    pw_block, pw_edge = pw.block, pw.edge_offset
    if at_hot.any():
        hw = dense_walks.select(at_hot)
        edge_idx = (
            self.graph.offsets[hw.cur]
            + pw.edge_offset[at_hot]
            + self.part.block_edge_lo[pw.block[at_hot]]
        )
        nxt = self.graph.edges[edge_idx]
        hop = hw.hop - 1
        acc = self.cfg.levels.board
        busy += len(hw) * acc.updater_ops_per_hop * acc.updater_cycle / acc.n_updaters
        m.hops.add(len(hw))
        m.hot_hits_board.add(len(hw))
        done = hop == 0
        if self.spec.stop_probability > 0:
            done |= self.spec.apply_stop_probability(hop, self.rngs.stream("board"))
        if done.any():
            self._complete_walks(
                t, int(done.sum()), sink="board",
                walks=WalkSet(hw.src[done], nxt[done], hop[done]),
            )
        survivors = WalkSet(hw.src[~done], nxt[~done], hop[~done])
        dense_walks = dense_walks.select(~at_hot)
        pw_block, pw_edge = pw_block[~at_hot], pw_edge[~at_hot]
    in_part = (pw_block >= self.mapping.first_block) & (
        pw_block <= self.mapping.last_block
    )
    if in_part.any():
        self._insert_pwb(
            t,
            dense_walks.select(in_part),
            pw_block[in_part],
            pre_edge=pw_edge[in_part] + self.part.block_edge_lo[pw_block[in_part]],
        )
    if (~in_part).any():
        self._store_foreigners(
            t, dense_walks.select(~in_part), target_blocks=pw_block[~in_part]
        )
    return survivors.records(), busy


class TestBoardDirectPaths:
    @given(
        warm=st.none() | direct_batches(),
        batch=direct_batches(),
        hs=st.booleans(),
        wq=st.booleans(),
        scoped=st.booleans(),
        stop=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=150, deadline=None)
    def test_scalar_path_matches_vector_path(self, warm, batch, hs, wq, scoped, stop):
        """The same batch of 1-16 walks, from the same engine state,
        leaves the same buffers, scheduler, foreigners, counters, caches,
        RNG streams, completions and pending events down both paths
        (the vector one pre-walks with the NumPy reference)."""
        engines = _direct_engine(hs, wq, stop), _direct_engine(hs, wq, stop)
        engines[1]._pre_walk = types.MethodType(_vector_pre_walk, engines[1])
        busy = []
        for fw, direct, walks in zip(
            engines,
            ("_board_direct_scalar", "_board_direct_vector"),
            (batch.records(), batch),
        ):
            if warm is not None:
                fw.inject_walks(warm)
            fw.in_transit += len(batch)
            t = fw.sim.now
            busy.append(getattr(fw, direct)(t, walks, scoped))
            fw._finish_board_batch(t, busy[-1])
        assert busy[0] == busy[1]
        assert _direct_state(engines[0]) == _direct_state(engines[1])

    @given(st.lists(st.integers(-3, 300), max_size=SMALL_BATCH), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_hot_mask_matches_gather(self, cur, hs):
        """``_hot_mask`` answers the residency gather for the board and
        every channel, and rejects the same out-of-range vertices."""
        fw = _direct_engine(hs, True, 0.0)
        nv = fw.graph.num_vertices
        for home in [-1] + list(range(len(fw.channels))):
            if all(0 <= v < nv for v in cur):
                want = fw._hot_home[fw.part.block_of_vertex(np.array(cur, dtype=np.int64))]
                assert fw._hot_mask(cur, home) == (want == home).tolist()
            else:
                with pytest.raises(PartitionError):
                    fw.part.block_of_vertex(np.array(cur, dtype=np.int64))
                with pytest.raises(PartitionError):
                    fw._hot_mask(cur, home)
        for v in cur:
            if not 0 <= v < nv:
                with pytest.raises(PartitionError):
                    fw._hot_mask([v], -1)


@contextlib.contextmanager
def _walkset_engine():
    """Patches under which an engine carries WalkSets wherever it would
    carry records: drains give WalkSets, roving and collected walks stay
    WalkSets, and every board batch takes the vector path, pre-walks
    included."""
    drain = PartitionWalkBuffer.drain

    def drain_walkset(self, block):
        batch, nb, ns = drain(self, block)
        pre = batch.pre_edge
        if pre is not None:
            pre = np.array(pre, dtype=np.int64)
        return WalkBatch(as_walkset(batch.walks), pre), nb, ns

    def concat_walkset(parts):
        return WalkSet.concat([as_walkset(p) for p in parts])

    def direct_vector(self, t, recs, scoped):
        return self._board_direct_vector(t, WalkSet.from_records(recs), scoped)

    with (
        mock.patch.object(PartitionWalkBuffer, "drain", drain_walkset),
        mock.patch.object(flashwalker_mod, "concat_walks", concat_walkset),
        mock.patch.object(chip_accel_mod, "concat_walks", concat_walkset),
        mock.patch.object(FlashWalker, "_board_direct_scalar", direct_vector),
        mock.patch.object(FlashWalker, "_pre_walk", _vector_pre_walk),
    ):
        yield


def _log_trip(fw: FlashWalker) -> list:
    """Log every batch a chip advances and every batch the board
    directs, as records, in event order (walk order is what a
    representation change could break without changing a total)."""
    log = []
    chip_process, board_direct = fw._chip_process, fw._board_direct

    def logged_chip(chip, batch):
        pre = batch.pre_edge
        pre = None if pre is None else [int(e) for e in pre]
        log.append(("chip", chip.index, as_records(batch.walks), pre))
        chip_process(chip, batch)

    def logged_direct(walks, scoped):
        log.append(("board", as_records(walks), scoped))
        board_direct(walks, scoped)

    fw._chip_process = logged_chip
    fw._board_direct = logged_direct
    return log


class TestRecordsTrip:
    @given(
        n=st.integers(1, SMALL_BATCH),
        data=st.data(),
        pre=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_insert_pwb_records_matches_arrays(self, n, data, pre):
        """Records inserted into several PWB entries at once, with or
        without pre-walked edges, land as the array insert puts them."""
        first, last = 0, 24
        draw = data.draw
        recs = [
            (draw(st.integers(0, 255)), draw(st.integers(0, 255)), draw(st.integers(1, 4)))
            for _ in range(n)
        ]
        blocks = draw(st.lists(st.integers(first, last), min_size=n, max_size=n))
        edges = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)) if pre else None
        engines = _direct_engine(True, True, 0.0), _direct_engine(True, True, 0.0)
        for fw in engines:
            fw.in_transit += n
        engines[0]._insert_pwb_scalar(0.0, recs, blocks, edges)
        engines[1]._insert_pwb(
            0.0,
            WalkSet.from_records(recs),
            np.array(blocks, dtype=np.int64),
            None if edges is None else np.array(edges, dtype=np.int64),
        )
        assert _direct_state(engines[0]) == _direct_state(engines[1])

    @given(
        channel=st.sampled_from([0, 1, 2, 5, 12, 20]),
        parts=st.lists(st.lists(direct_batches(), max_size=2), min_size=4, max_size=4),
        stop=st.sampled_from([0.0, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_channel_collect_matches_walkset_collect(self, channel, parts, stop):
        """A channel collects its chips' roving batches (records in one
        engine, WalkSets in the other; totals on both sides of the
        cut), updates its hot walks and directs the rest at the board:
        both engines direct the same batches and end in the same
        state."""
        states = []
        for patches, form in (
            (contextlib.nullcontext(), WalkSet.records),
            (_walkset_engine(), lambda w: w),
        ):
            with patches:
                fw = _direct_engine(True, True, stop)
                log = _log_trip(fw)
                cpc = fw.cfg.ssd.chips_per_channel
                for chip, batches in zip(fw.chips[channel * cpc :], parts):
                    for b in batches:
                        chip.push_roving(form(b))
                        fw.in_transit += len(b)
                fw._collect_channel(channel)
                while fw.sim.step():
                    pass
                states.append((fw.sim.now, log, _direct_state(fw)))
        assert states[0] == states[1]

    @given(
        warm=st.none() | direct_batches(),
        batch=direct_batches(),
        hs=st.booleans(),
        wq=st.booleans(),
        stop=st.sampled_from([0.0, 0.3]),
        steps=st.integers(0, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_records_trip_matches_walkset_trip(self, warm, batch, hs, wq, stop, steps):
        """The same batches of 1-16 walks, boarded into two identical
        engines, go around buffer drain, chip advance, the roving
        buffer, channel collection and board direction; one engine
        carries them as records, the other as WalkSets down the vector
        paths.  Both advance and direct the same batches, walk for
        walk, and after the same number of events both hold the same
        buffers, roving walks, scheduler, foreigners, counters, RNG
        streams, completions and pending events."""
        states = []
        for patches in (contextlib.nullcontext(), _walkset_engine()):
            with patches:
                fw = _direct_engine(hs, wq, stop)
                log = _log_trip(fw)
                if warm is not None:
                    fw.inject_walks(warm)
                fw.inject_walks(batch)
                for _ in range(steps):
                    if not fw.sim.step():
                        break
                rove = [as_records(concat_walks(c.pending_rove)) for c in fw.chips]
                states.append(
                    (fw.sim.events_executed, fw.sim.now, log, rove, _direct_state(fw))
                )
        assert states[0] == states[1]

    @pytest.mark.parametrize("per_side", [3, 12])
    def test_channel_directs_rest_before_hot_roving(self, per_side):
        """A channel collection directs its non-hot walks first, in
        collection order, then the walks its hot update sent roving
        (records below the cut, a WalkSet above it)."""
        fw = _direct_engine(True, True, 0.0)
        ch = next(c for c in fw.channels if c.hot_blocks)
        vb = fw.part.vertex_block
        hot_v = np.flatnonzero(np.isin(vb, ch.hot_blocks) & ~fw.part.dense_vertex_mask)
        rest_v = np.flatnonzero(fw._hot_home[vb] != ch.channel_id)
        # Distinct sources name each walk; hot walks start at hop 0 so
        # their update leaves most of them roving.
        rest = [(i, int(rest_v[i % rest_v.size]), 1) for i in range(per_side)]
        hot = [
            (100 + i, int(hot_v[i % hot_v.size]), 0) for i in range(per_side)
        ]
        walks = rest + hot
        fw.chips[ch.channel_id * fw.cfg.ssd.chips_per_channel].push_roving(
            walks if len(walks) <= SMALL_BATCH else as_walkset(walks)
        )
        fw.in_transit += len(walks)
        directed = []
        fw._board_direct = lambda w, scoped: directed.append(as_records(w))
        fw._collect_channel(ch.channel_id)
        while fw.sim.step():
            pass
        [got] = directed
        assert got[:per_side] == rest
        roving = got[per_side:]
        assert roving and {r[0] for r in roving} <= {r[0] for r in hot}


class TestHotResidency:
    @pytest.mark.parametrize("hs", [True, False])
    def test_table_matches_hot_lists_without_dense_vertices(self, hs):
        """A vertex is board- (channel-) hot by the table exactly when
        its block is on the board's (channel's) hot list and the vertex
        is not dense: the dense test the lookup dropped never fires."""
        fw = _direct_engine(hs, True, 0.0)
        vb = fw.part.vertex_block
        home = fw._hot_home[vb]
        dense = fw.part.dense_vertex_mask
        assert np.isin(vb, fw.board.hot_blocks).any() == hs
        np.testing.assert_array_equal(
            home == -1, np.isin(vb, fw.board.hot_blocks) & ~dense
        )
        for ch in fw.channels:
            np.testing.assert_array_equal(
                home == ch.channel_id, np.isin(vb, ch.hot_blocks) & ~dense
            )


# Chip batches skip the load attempt of a chip with no pending walks;
# the reference engine below still makes it.


class _LoadAfterEveryBatch(FlashWalker):
    """The engine without the skip: every chip batch ends in a load
    attempt, whether or not the chip has walks pending."""

    def _after_chip_batch(self, chip):
        t = self.sim.now
        chip.busy = False
        self._start_load(chip, t)
        if not chip.busy:
            self._service_barriers(t)


def _load_engine(cls, failures=(), ckpt=0.0):
    """Two partitions, two-walk buffer entries (inserts spill) and the
    fault layer on for chip failures and checkpoint drains."""
    cfg = FlashWalkerConfig().replace(
        subgraph_bytes=256,
        partition_subgraphs=25,
        board_hot_subgraphs=1,
        channel_hot_subgraphs=1,
        pwb_entry_walks=2,
        faults=FaultConfig(
            enabled=True, chip_failures=failures, checkpoint_interval=ckpt
        ),
    )
    fw = cls(_direct_graph(), cfg, seed=1)
    fw.completions = []
    fw._on_completed = lambda t, w: fw.completions.append((t, as_records(w)))
    return fw


def _load_windows(starts, spec, ckpt):
    """Each chip load of a failure-free run, as (chip, start, ready)."""
    fw = _load_engine(FlashWalker, ckpt=ckpt)
    opened, windows = {}, []
    start_load, chip_process = fw._start_load, fw._chip_process

    def logged_start(chip, t):
        start_load(chip, t)
        if chip.busy:
            opened[chip.index] = t

    def logged_process(chip, batch):
        windows.append((chip.index, opened.pop(chip.index), fw.sim.now))
        chip_process(chip, batch)

    fw._start_load, fw._chip_process = logged_start, logged_process
    fw.run(starts=starts, spec=spec)
    return windows


def _scheduler_view(snap: dict, n_chips: int) -> tuple:
    """A scheduler snapshot without its refresh history: the scoreboard,
    and per chip the topN list ``next_subgraph`` reads, or None where it
    refreshes the list first (the chip is dirty or its list empty)."""
    top = [
        None if c in snap["dirty"] or not snap["top"][c] else snap["top"][c]
        for c in range(n_chips)
    ]
    rest = {k: v for k, v in snap.items() if k not in ("top", "dirty", "refreshes")}
    return rest, top


class TestSkippedLoads:
    @given(
        n=st.integers(1, 160),
        seed=st.integers(0, 2**16),
        length=st.integers(1, 6),
        ckpt=st.sampled_from([0.0, 50e-6, 200e-6]),
        fail=st.none() | st.tuples(st.integers(0, 10**6), st.floats(0.05, 0.95)),
        steps=st.none() | st.integers(0, 800),
    )
    @settings(max_examples=40, deadline=None)
    def test_skip_matches_load_after_every_batch(self, n, seed, length, ckpt, fail, steps):
        """With and without the skip, a run (with a chip failing mid-load,
        checkpoint drains and spilling buffer entries) advances and
        directs the same batches in the same order, and after the same
        number of events (or at the end) holds the same buffers,
        scoreboard, counters, RNG streams, completions and pending
        events; only the count of topN refreshes differs."""
        spec = WalkSpec(length=length)
        starts = np.random.default_rng(seed).integers(0, 256, n)
        failures = ()
        if fail is not None:
            windows = [w for w in _load_windows(starts, spec, ckpt) if w[2] > w[1]]
            if windows:
                chip, t0, t1 = windows[fail[0] % len(windows)]
                failures = ((t0 + fail[1] * (t1 - t0), chip),)
        states = []
        for cls in (FlashWalker, _LoadAfterEveryBatch):
            fw = _load_engine(cls, failures, ckpt)
            log = _log_trip(fw)
            result = None
            try:
                result = fw.run(starts=starts, spec=spec, max_events=steps)
            except SimulationError:
                assert steps is not None and fw.sim.events_executed == steps
            state = _direct_state(fw)
            state["scheduler"] = _scheduler_view(state["scheduler"], len(fw.chips))
            if result is not None:
                counters = dict(result.counters)
                del counters["sched_topn_refreshes"]
                state["result"] = (result.elapsed, result.hops, counters)
            states.append((fw.sim.events_executed, fw.sim.now, log, state))
        assert states[0] == states[1]

    def test_skip_covers_failure_drain_and_spill(self):
        """One fixed case reaches every branch the Hypothesis test is
        meant to cover: a chip fails while it loads, checkpoints drain,
        buffer entries spill, and chips end batches with nothing pending
        (the skipped load), so the two engines' refresh counts differ."""
        spec = WalkSpec(length=6)
        starts = np.arange(0, 256, 2, dtype=np.int64)
        chip, t0, t1 = _load_windows(starts, spec, 50e-6)[10]
        results = []
        for cls in (FlashWalker, _LoadAfterEveryBatch):
            fw = _load_engine(cls, ((t0 + 0.5 * (t1 - t0), chip),), 50e-6)
            reroutes = []
            chip_process = fw._chip_process

            def logged(c, batch, reroutes=reroutes, chip_process=chip_process):
                if c.failed:
                    reroutes.append(c.index)
                chip_process(c, batch)

            fw._chip_process = logged
            refreshes = []
            refresh = SubgraphScheduler._refresh_top

            def counted(sched, c, refreshes=refreshes):
                refreshes.append(c)
                refresh(sched, c)

            with mock.patch.object(SubgraphScheduler, "_refresh_top", counted):
                res = fw.run(starts=starts, spec=spec)
            assert reroutes == [chip]
            assert res.counters["checkpoints_taken"] > 0
            assert res.counters["spilled_walks"] > 0
            counters = dict(res.counters)
            del counters["sched_topn_refreshes"]
            results.append((res.elapsed, counters, len(refreshes)))
        assert results[0][:2] == results[1][:2]
        assert results[0][2] < results[1][2]
