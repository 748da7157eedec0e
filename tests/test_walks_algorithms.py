"""Tests for the random-walk application layer."""

import numpy as np
import pytest

from repro.common import WalkError
from repro.graph import ring_graph, star_graph
from repro.walks import deepwalk_corpus, personalized_pagerank


class TestDeepWalk:
    def test_corpus_shape(self, small_graph, rng):
        corpus = deepwalk_corpus(small_graph, rng, walks_per_vertex=2, walk_length=4)
        assert corpus.shape == (2 * small_graph.num_vertices, 5)

    def test_every_vertex_is_a_start(self, rng):
        g = ring_graph(20)
        corpus = deepwalk_corpus(g, rng, walks_per_vertex=3, walk_length=2)
        starts = corpus[:, 0]
        assert np.bincount(starts, minlength=20).min() == 3

    def test_trajectories_follow_edges(self, rng):
        g = ring_graph(12)
        corpus = deepwalk_corpus(g, rng, walks_per_vertex=1, walk_length=3)
        for row in corpus:
            for a, b in zip(row[:-1], row[1:]):
                if b >= 0:
                    assert b == (a + 1) % 12

    def test_rejects_bad_args(self, small_graph, rng):
        with pytest.raises(WalkError):
            deepwalk_corpus(small_graph, rng, walks_per_vertex=0)


class TestPPR:
    def test_distribution_sums_to_one(self, small_graph, rng):
        ppr = personalized_pagerank(small_graph, 0, rng, num_walks=2000)
        assert ppr.sum() == pytest.approx(1.0)

    def test_source_weighting(self, rng):
        # On a star, walks from the hub restart there constantly.
        g = star_graph(20)
        ppr = personalized_pagerank(g, 0, rng, num_walks=4000, stop_probability=0.5)
        assert ppr[0] > ppr[1:].max()

    def test_locality(self, rng):
        # Far vertices on a long ring get negligible mass.
        g = ring_graph(200)
        ppr = personalized_pagerank(g, 0, rng, num_walks=3000, stop_probability=0.3)
        assert ppr[:10].sum() > 0.95

    def test_rejects_bad_source(self, small_graph, rng):
        with pytest.raises(WalkError):
            personalized_pagerank(small_graph, -1, rng)

    def test_rejects_zero_walks(self, small_graph, rng):
        with pytest.raises(WalkError):
            personalized_pagerank(small_graph, 0, rng, num_walks=0)
