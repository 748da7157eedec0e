"""Tests for walk specs, start selection, and the reference walker."""

import numpy as np
import pytest

from repro.common import WalkError
from repro.graph import (
    CSRGraph,
    complete_graph,
    path_graph,
    ring_graph,
)
from repro.walks import WalkSpec, reference_walks, start_vertices, visit_counts


class TestWalkSpec:
    def test_defaults(self):
        s = WalkSpec().validate()
        assert s.length == 6  # the paper fixes walk length 6
        assert s.stop_probability == 0.0
        assert not s.biased

    def test_rejects_zero_length(self):
        with pytest.raises(WalkError):
            WalkSpec(length=0).validate()

    def test_rejects_bad_stop_probability(self):
        with pytest.raises(WalkError):
            WalkSpec(stop_probability=1.0).validate()
        with pytest.raises(WalkError):
            WalkSpec(stop_probability=-0.1).validate()

    def test_biased_requires_weights(self, small_graph):
        with pytest.raises(WalkError):
            WalkSpec(biased=True).validate(small_graph)
        WalkSpec(biased=True).validate(small_graph.with_uniform_weights())

    def test_stop_probability_statistics(self, rng):
        s = WalkSpec(stop_probability=0.25)
        hops = np.zeros(20_000, dtype=np.int64)
        stops = s.apply_stop_probability(hops, rng)
        assert 0.23 < stops.mean() < 0.27

    def test_stop_probability_zero_never_stops(self, rng):
        s = WalkSpec(stop_probability=0.0)
        assert not s.apply_stop_probability(np.zeros(100, dtype=np.int64), rng).any()


class TestStartVertices:
    def test_uniform_starts_in_range(self, small_graph, rng):
        starts = start_vertices(small_graph, 1000, rng)
        assert starts.size == 1000
        assert starts.min() >= 0
        assert starts.max() < small_graph.num_vertices

    def test_sources_cycled(self, small_graph, rng):
        starts = start_vertices(small_graph, 7, rng, sources=np.array([2, 5]))
        np.testing.assert_array_equal(starts, [2, 5, 2, 5, 2, 5, 2])

    def test_rejects_bad_source(self, small_graph, rng):
        with pytest.raises(WalkError):
            start_vertices(small_graph, 5, rng, sources=np.array([99999]))

    def test_rejects_empty_sources(self, small_graph, rng):
        with pytest.raises(WalkError):
            start_vertices(small_graph, 5, rng, sources=np.array([], dtype=int))

    def test_rejects_negative_count(self, small_graph, rng):
        with pytest.raises(WalkError):
            start_vertices(small_graph, -1, rng)


class TestReferenceWalks:
    def test_ring_walk_deterministic(self, rng):
        g = ring_graph(10)
        res = reference_walks(g, np.zeros(5, dtype=np.int64), WalkSpec(length=3), rng)
        np.testing.assert_array_equal(res["final"], np.full(5, 3))
        np.testing.assert_array_equal(res["hops"], np.full(5, 3))

    def test_dead_end_stops_walk(self, rng):
        g = path_graph(3)
        res = reference_walks(g, np.array([0]), WalkSpec(length=10), rng)
        assert res["final"][0] == 2
        assert res["hops"][0] == 2

    def test_visits_include_start(self, rng):
        g = ring_graph(4)
        res = reference_walks(g, np.array([0]), WalkSpec(length=2), rng)
        np.testing.assert_array_equal(res["visits"], [1, 1, 1, 0])

    def test_visit_count_conservation(self, small_graph, rng):
        n = 500
        starts = np.zeros(n, dtype=np.int64)
        res = reference_walks(small_graph, starts, WalkSpec(length=6), rng)
        assert res["visits"].sum() == n + res["hops"].sum()

    def test_trajectories_recorded(self, rng):
        g = ring_graph(8)
        res = reference_walks(
            g, np.array([0, 4]), WalkSpec(length=3), rng, record_trajectories=True
        )
        traj = res["trajectories"]
        np.testing.assert_array_equal(traj[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(traj[1], [4, 5, 6, 7])

    def test_trajectory_padding_on_dead_end(self, rng):
        g = path_graph(3)
        res = reference_walks(
            g, np.array([1]), WalkSpec(length=4), rng, record_trajectories=True
        )
        np.testing.assert_array_equal(res["trajectories"][0], [1, 2, -1, -1, -1])

    def test_stop_probability_shortens_walks(self, rngs):
        g = complete_graph(20)
        starts = np.zeros(3000, dtype=np.int64)
        short = reference_walks(
            g, starts, WalkSpec(length=20, stop_probability=0.5), rngs.fresh("a")
        )
        full = reference_walks(g, starts, WalkSpec(length=20), rngs.fresh("b"))
        assert short["hops"].mean() < full["hops"].mean() / 3

    def test_biased_walks_prefer_heavy_edges(self, rng):
        # 0 -> 1 (weight 99), 0 -> 2 (weight 1); walks of length 1.
        g = CSRGraph(
            np.array([0, 2, 2, 2]),
            np.array([1, 2]),
            np.array([99.0, 1.0]),
        )
        res = reference_walks(
            g, np.zeros(2000, dtype=np.int64), WalkSpec(length=1, biased=True), rng
        )
        assert np.mean(res["final"] == 1) > 0.95

    def test_unbiased_walks_ignore_weights(self, rng):
        """Section II-A: an unbiased walk picks a uniform out-edge, even
        on a weighted graph.  Same 99:1 fork as above."""
        from repro.core import FlashWalker

        g = CSRGraph(
            np.array([0, 2, 2, 2]),
            np.array([1, 2]),
            np.array([99.0, 1.0]),
        )
        starts = np.zeros(2000, dtype=np.int64)
        ref = reference_walks(g, starts, WalkSpec(length=1), rng)
        assert 0.45 < np.mean(ref["final"] == 1) < 0.55
        res = FlashWalker(g, seed=3).run(
            starts=starts, spec=WalkSpec(length=1), record_finals=True
        )
        assert len(res.finals) == starts.size
        assert 0.45 < np.mean(res.finals.cur == 1) < 0.55

    def test_rejects_out_of_range_start(self, small_graph, rng):
        with pytest.raises(WalkError):
            reference_walks(
                small_graph,
                np.array([small_graph.num_vertices]),
                WalkSpec(),
                rng,
            )

    def test_visit_counts_helper(self, small_graph, rng):
        v = visit_counts(small_graph, 200, WalkSpec(length=4), rng)
        assert v.sum() >= 200  # at least the starts
        assert v.size == small_graph.num_vertices
