"""Tests for walk state (WalkSet) and neighbor samplers."""

import numpy as np
import pytest

from repro.common import GraphError, WalkError
from repro.graph import CSRGraph, add_random_weights, path_graph, ring_graph
from repro.walks import (
    AliasSampler,
    WalkSet,
    its_search_steps,
    make_sampler,
    uniform_next,
)


class TestWalkSet:
    def test_start(self):
        w = WalkSet.start(np.array([3, 5]), length=6)
        np.testing.assert_array_equal(w.src, [3, 5])
        np.testing.assert_array_equal(w.cur, [3, 5])
        np.testing.assert_array_equal(w.hop, [6, 6])

    def test_start_copies(self):
        starts = np.array([1, 2])
        w = WalkSet.start(starts, 3)
        starts[0] = 99
        assert w.src[0] == 1

    def test_empty(self):
        w = WalkSet.empty()
        assert len(w) == 0

    def test_concat(self):
        a = WalkSet.start(np.array([1]), 2)
        b = WalkSet.start(np.array([2, 3]), 2)
        c = WalkSet.concat([a, b, WalkSet.empty()])
        assert len(c) == 3
        np.testing.assert_array_equal(c.src, [1, 2, 3])

    def test_concat_empty_list(self):
        assert len(WalkSet.concat([])) == 0

    def test_concat_single_passthrough(self):
        a = WalkSet.start(np.array([1]), 2)
        assert WalkSet.concat([a]) is a

    def test_select_mask_and_indices(self):
        w = WalkSet.start(np.array([10, 20, 30]), 4)
        m = w.select(np.array([True, False, True]))
        np.testing.assert_array_equal(m.src, [10, 30])
        i = w.select(np.array([2, 0]))
        np.testing.assert_array_equal(i.src, [30, 10])

    def test_split(self):
        w = WalkSet.start(np.array([1, 2, 3, 4]), 4)
        yes, no = w.split(np.array([True, False, True, False]))
        np.testing.assert_array_equal(yes.src, [1, 3])
        np.testing.assert_array_equal(no.src, [2, 4])

    def test_split_shape_mismatch(self):
        w = WalkSet.start(np.array([1, 2]), 4)
        with pytest.raises(WalkError):
            w.split(np.array([True]))

    def test_nbytes(self):
        w = WalkSet.start(np.arange(10), 4)
        assert w.nbytes(12) == 120
        with pytest.raises(WalkError):
            w.nbytes(0)

    def test_finished_mask(self):
        w = WalkSet(np.array([0, 1]), np.array([0, 1]), np.array([0, 3]))
        np.testing.assert_array_equal(w.finished, [True, False])

    def test_rejects_negative_hops(self):
        with pytest.raises(WalkError):
            WalkSet(np.array([0]), np.array([0]), np.array([-1]))

    def test_rejects_misaligned(self):
        with pytest.raises(WalkError):
            WalkSet(np.array([0, 1]), np.array([0]), np.array([1]))

    def test_copy_independent(self):
        w = WalkSet.start(np.array([1]), 5)
        c = w.copy()
        c.cur[0] = 42
        assert w.cur[0] == 1

    def test_records_round_trip(self):
        w = WalkSet(np.array([1, 2]), np.array([3, 4]), np.array([5, 0]))
        assert w.records() == [(1, 3, 5), (2, 4, 0)]
        back = WalkSet.from_records(w.records())
        for got, want in zip((back.src, back.cur, back.hop), (w.src, w.cur, w.hop)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64 and got.flags.c_contiguous
        empty = WalkSet.from_records([])
        assert len(empty) == 0 and empty.cur.shape == (0,)


class TestUniformNext:
    def test_ring_is_deterministic(self, rng):
        g = ring_graph(10)
        nxt = uniform_next(g, np.arange(10), rng)
        np.testing.assert_array_equal(nxt, (np.arange(10) + 1) % 10)

    def test_dead_end_returns_minus_one(self, rng):
        g = path_graph(3)  # vertex 2 is a sink
        nxt = uniform_next(g, np.array([2]), rng)
        assert nxt[0] == -1

    def test_uniformity(self, rng):
        g = CSRGraph.from_edge_list(
            np.zeros(4, dtype=np.int64), np.array([1, 2, 3, 4]), num_vertices=5
        )
        nxt = uniform_next(g, np.zeros(40_000, dtype=np.int64), rng)
        counts = np.bincount(nxt, minlength=5)[1:]
        assert counts.min() > 9_000  # each ~10k +- noise

    def test_empty_batch(self, rng):
        g = ring_graph(4)
        assert uniform_next(g, np.zeros(0, dtype=np.int64), rng).size == 0

    def test_out_of_range_rejected(self, rng):
        g = ring_graph(4)
        with pytest.raises(WalkError):
            uniform_next(g, np.array([9]), rng)


class TestITS:
    def test_search_steps_scalar_and_vector(self):
        assert its_search_steps(1) == 1
        assert its_search_steps(2) == 1
        assert its_search_steps(1024) == 10
        np.testing.assert_array_equal(
            its_search_steps(np.array([1, 8, 1000])), [1, 3, 10]
        )

    def test_search_steps_zero_dim_array(self):
        """Regression: a 0-d ndarray (e.g. ``arr[i]`` of an int array)
        is scalar-like and must return a scalar, not a length-1 array."""
        out = its_search_steps(np.array(1024))
        assert np.ndim(out) == 0
        assert out == 10
        assert its_search_steps(np.int64(8)) == 3


class TestAliasSampler:
    def test_requires_weights(self, small_graph):
        with pytest.raises(GraphError):
            AliasSampler(small_graph)

    def test_matches_its_distribution(self, rng):
        g = CSRGraph(
            np.array([0, 3]),
            np.array([0, 0, 0]),
            np.array([1.0, 2.0, 7.0]),
        )
        # Sample edge slots via both methods and compare frequencies.
        alias = AliasSampler(g)
        n = 60_000
        its_hits = np.zeros(3)
        cw = np.cumsum(g.weights)  # one vertex: its ITS list
        r = rng.random(n) * 10.0
        idx = np.searchsorted(cw, r, side="right")
        np.add.at(its_hits, np.minimum(idx, 2), 1)
        # alias probabilities are exact by construction: check table sums
        probs = np.zeros(3)
        slots = (rng.random(n) * 3).astype(int)
        take_alias = rng.random(n) >= alias.prob[slots]
        chosen = np.where(take_alias, alias.alias[slots], slots)
        np.add.at(probs, chosen, 1)
        np.testing.assert_allclose(probs / n, its_hits / n, atol=0.02)

    def test_dead_ends(self, rng):
        g = path_graph(3).with_uniform_weights()
        alias = AliasSampler(g)
        nxt = alias.next_vertices(np.array([2, 0]), rng)
        assert nxt[0] == -1
        assert nxt[1] == 1

    def test_uniform_weights_match_uniform_sampler(self, rng, rngs):
        g = ring_graph(8).with_uniform_weights()
        alias = AliasSampler(g)
        nxt = alias.next_vertices(np.arange(8), rng)
        np.testing.assert_array_equal(nxt, (np.arange(8) + 1) % 8)

    def test_empty_batch(self, rng):
        g = ring_graph(4).with_uniform_weights()
        assert AliasSampler(g).next_vertices(np.zeros(0, dtype=np.int64), rng).size == 0


class TestMakeSampler:
    def test_unweighted_uniform(self, small_graph, rng):
        sampler = make_sampler(small_graph)
        out = sampler(np.zeros(10, dtype=np.int64), rng)
        assert out.shape == (10,)

    def test_weighted_alias(self, small_graph, rng):
        g = add_random_weights(small_graph, rng)
        sampler = make_sampler(g, biased=True)
        out = sampler(np.zeros(10, dtype=np.int64), rng)
        assert out.shape == (10,)
