"""Tests for walk query caches and the dense-vertices table + pre-walking."""

import numpy as np
import pytest

from repro.common import ReproError
from repro.core import DenseVertexTable, QueryCacheArray, WalkQueryCache
from repro.graph import partition_graph, star_graph


class TestWalkQueryCache:
    def test_miss_then_hit(self):
        c = WalkQueryCache(4)
        assert not c.probe(7)
        assert c.probe(7)
        assert c.hits == 1 and c.misses == 1

    def test_lru_eviction(self):
        c = WalkQueryCache(2)
        c.probe(1)
        c.probe(2)
        c.probe(3)  # evicts 1
        assert not c.probe(1)

    def test_lru_refresh_on_hit(self):
        c = WalkQueryCache(2)
        c.probe(1)
        c.probe(2)
        c.probe(1)  # refresh 1 -> 2 is LRU
        c.probe(3)  # evicts 2
        assert c.probe(1)
        assert not c.probe(2)

    def test_batch_repeats_hit(self):
        c = WalkQueryCache(8)
        hits, misses = c.probe_batch(np.array([5, 5, 5, 6]))
        assert misses == 2  # one per unique block
        assert hits == 2    # the repeats

    def test_batch_empty(self):
        c = WalkQueryCache(8)
        assert c.probe_batch(np.array([], dtype=np.int64)) == (0, 0)

    def test_hit_rate(self):
        c = WalkQueryCache(8)
        c.probe_batch(np.array([1, 1, 1, 1]))
        assert c.hit_rate == pytest.approx(0.75)

    def test_invalidate(self):
        c = WalkQueryCache(8)
        c.probe(3)
        c.invalidate()
        assert not c.probe(3)

    def test_rejects_zero_entries(self):
        with pytest.raises(ReproError):
            WalkQueryCache(0)

    def test_batch_repeat_of_evicted_block_misses(self):
        """Regression: a repeat whose block was evicted mid-batch must
        not be credited as a hit.

        Batch [9, 5, 1, 9] against a 2-entry cache, replayed
        sequentially: 9 miss, 5 miss, 1 miss (evicts 9), 9 miss again.
        The old implementation probed unique blocks in sorted order and
        blanket-credited every repeat, reporting (1, 3) and leaving
        {5, 9} resident instead of {1, 9}.
        """
        c = WalkQueryCache(2)
        hits, misses = c.probe_batch(np.array([9, 5, 1, 9]))
        assert (hits, misses) == (0, 4)
        assert c.entries() == [1, 9]

    def test_batch_first_appearance_order(self):
        """Unique blocks are processed in first-appearance order, not
        sorted order, so eviction picks the true LRU victim."""
        c = WalkQueryCache(2)
        c.probe_batch(np.array([3, 1]))  # LRU order: 3, 1
        # 2 misses and evicts 3 (LRU); sorted-order processing would
        # probe 1 first, refreshing it only by accident of block ID.
        hits, misses = c.probe_batch(np.array([1, 2]))
        assert (hits, misses) == (1, 1)
        assert c.entries() == [1, 2]
        assert 3 not in c

    def test_batch_repeats_refresh_recency(self):
        """A repeated block's recency reflects its *last* appearance."""
        c = WalkQueryCache(2)
        hits, misses = c.probe_batch(np.array([1, 2, 1]))
        assert (hits, misses) == (1, 2)
        # 1 was touched last -> 2 is the LRU victim.
        assert c.entries() == [2, 1]
        c.probe(3)
        assert 1 in c and 2 not in c

    @pytest.mark.parametrize("n_entries", [1, 2, 3, 8])
    def test_batch_equals_sequential_probes(self, n_entries, rng):
        """probe_batch is exactly equivalent to a per-element probe()
        loop: same hit/miss totals and same final cache contents, for
        batches both under and over the cache capacity."""
        for trial in range(40):
            ids = rng.integers(0, 12, size=int(rng.integers(1, 30)))
            batched = WalkQueryCache(n_entries)
            oracle = WalkQueryCache(n_entries)
            # Shared warm-up so batches start from varied cache states.
            warm = rng.integers(0, 12, size=4)
            for b in warm:
                batched.probe(int(b))
                oracle.probe(int(b))
            hits, misses = batched.probe_batch(ids)
            o_hits = sum(oracle.probe(int(b)) for b in ids)
            assert (hits, misses) == (o_hits, ids.size - o_hits)
            assert batched.entries() == oracle.entries()
            assert batched.hits == oracle.hits
            assert batched.misses == oracle.misses


class TestQueryCacheArray:
    def test_sharding_consistent(self):
        arr = QueryCacheArray(4, 8)
        arr.probe_batch(np.array([0, 1, 2, 3]))
        hits, misses = arr.probe_batch(np.array([0, 1, 2, 3]))
        assert hits == 4 and misses == 0

    def test_totals(self):
        arr = QueryCacheArray(2, 4)
        arr.probe_batch(np.array([1, 1, 2]))
        assert arr.hits + arr.misses == 3
        assert 0 < arr.hit_rate < 1

    def test_invalidate_all(self):
        arr = QueryCacheArray(2, 4)
        arr.probe_batch(np.array([1, 2, 3]))
        arr.invalidate()
        _, misses = arr.probe_batch(np.array([1, 2, 3]))
        assert misses == 3

    def test_rejects_zero_caches(self):
        with pytest.raises(ReproError):
            QueryCacheArray(0, 4)

    def test_sharded_batch_equals_sequential(self, rng):
        """Array batch-probe matches per-element probing shard-wise."""
        for _ in range(20):
            ids = rng.integers(0, 40, size=int(rng.integers(1, 60)))
            arr = QueryCacheArray(4, 2)
            oracle = QueryCacheArray(4, 2)
            hits, misses = arr.probe_batch(ids)
            o_hits = o_misses = 0
            for b in ids:
                h, m = oracle.probe_batch(np.array([b]))
                o_hits += h
                o_misses += m
            assert (hits, misses) == (o_hits, o_misses)
            assert arr.hits == oracle.hits and arr.misses == oracle.misses


@pytest.fixture
def dense_part():
    return partition_graph(star_graph(5000), 4096)


class TestDenseVertexTable:
    def test_classify_exact(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        vs = np.array([0, 1, 2, 4999])
        mask = t.classify(vs)
        np.testing.assert_array_equal(mask, [True, False, False, False])

    def test_classify_empty(self, dense_part):
        t = DenseVertexTable(dense_part)
        assert t.classify(np.zeros(0, dtype=np.int64)).size == 0

    @pytest.mark.parametrize("bad", [-1, 5001, 2**40])
    def test_classify_rejects_out_of_range(self, dense_part, bad):
        t = DenseVertexTable(dense_part)  # star_graph(5000): 5001 vertices
        with pytest.raises(ReproError):
            t.classify(np.array([0, bad]))
        assert t.bloom_queries == 0
        assert t.classify(np.array([0])).tolist() == [True]

    def test_bloom_false_positives_corrected(self, dense_part, rng):
        # Undersized bloom filter: false positives happen but classify
        # stays exact because the hash table confirms.
        t = DenseVertexTable(dense_part, bits_per_item=2)
        vs = rng.integers(1, 5000, size=5000)
        mask = t.classify(vs)
        assert not mask.any()
        # probes happened for the positives (cost model visible)
        assert t.hash_probes >= t.false_positives

    def test_no_dense_vertices(self, small_graph):
        part = partition_graph(small_graph, 1 << 16)
        assert part.num_dense_vertices == 0
        t = DenseVertexTable(part)
        assert not t.classify(np.arange(10)).any()

    def test_pre_walk_uniformity(self, dense_part, rng):
        """Pre-walk block choice + in-block offset == one uniform draw."""
        t = DenseVertexTable(dense_part)
        meta = dense_part.dense_meta[0]
        n = 60_000
        pw = t.pre_walk(np.zeros(n, dtype=np.int64), rng)
        # Reconstruct the global edge index.
        global_edge = (
            pw.edge_offset
            + (pw.block - meta.first_block) * meta.edges_per_block
        )
        assert global_edge.min() >= 0
        assert global_edge.max() < meta.out_degree
        # Chi-square-ish check: each decile of edges drawn ~ n/10 times.
        deciles = np.clip(global_edge * 10 // meta.out_degree, 0, 9)
        counts = np.bincount(deciles, minlength=10)
        assert counts.min() > n / 10 * 0.9
        assert counts.max() < n / 10 * 1.1

    def test_pre_walk_block_bounds(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        meta = dense_part.dense_meta[0]
        pw = t.pre_walk(np.zeros(1000, dtype=np.int64), rng)
        assert pw.block.min() >= meta.first_block
        assert pw.block.max() < meta.first_block + meta.n_blocks
        assert (pw.edge_offset < meta.edges_per_block).all()

    def test_pre_walk_rejects_non_dense(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        with pytest.raises(ReproError):
            t.pre_walk(np.array([1]), rng)

    def test_pre_walk_empty(self, dense_part, rng):
        t = DenseVertexTable(dense_part)
        pw = t.pre_walk(np.zeros(0, dtype=np.int64), rng)
        assert pw.block.size == 0

    def test_measured_fpr_reported(self, dense_part, rng):
        t = DenseVertexTable(dense_part, bits_per_item=2)
        t.classify(rng.integers(1, 5000, size=2000))
        assert 0.0 <= t.measured_fpr <= 1.0
