"""Tests for the CSR graph representation."""

import warnings

import numpy as np
import pytest

from repro.common import GraphError
from repro.graph import CSRGraph
from repro.graph.csr import _PLACE_CHUNK


def simple_graph():
    # 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated
    return CSRGraph.from_edge_list(
        np.array([0, 0, 1, 2]), np.array([1, 2, 2, 0]), num_vertices=4
    )


class TestConstruction:
    def test_from_edge_list(self):
        g = simple_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 4
        np.testing.assert_array_equal(g.offsets, [0, 2, 3, 4, 4])

    def test_neighbors(self):
        g = simple_graph()
        np.testing.assert_array_equal(np.sort(g.neighbors(0)), [1, 2])
        np.testing.assert_array_equal(g.neighbors(3), [])

    def test_neighbors_is_view(self):
        g = simple_graph()
        assert g.neighbors(0).base is g.edges

    def test_infers_num_vertices(self):
        g = CSRGraph.from_edge_list(np.array([0, 5]), np.array([5, 0]))
        assert g.num_vertices == 6

    def test_empty_edge_graph(self):
        g = CSRGraph(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_rejects_bad_offsets_start(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))

    def test_rejects_offsets_edge_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0]))

    def test_rejects_out_of_range_destination(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(np.array([0]), np.array([7]), num_vertices=2)

    def test_rejects_negative_source(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(np.array([-1]), np.array([0]))

    def test_rejects_float_edges(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0.5]))

    def test_rejects_source_beyond_num_vertices(self):
        with pytest.raises(GraphError, match="num_vertices"):
            CSRGraph.from_edge_list(np.array([0, 2]), np.array([1, 0]), num_vertices=2)


def stable_sort_reference(src, dst, num_vertices, weights=None):
    """(offsets, edges, weights) by one stable argsort of the sources."""
    order = np.argsort(src, kind="stable")
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
    w = None if weights is None else weights[order]
    return offsets, dst[order].astype(np.int64), w


class TestCountingPlacement:
    def assert_matches_reference(self, g, src, dst, num_vertices, weights=None):
        offsets, edges, w = stable_sort_reference(src, dst, num_vertices, weights)
        np.testing.assert_array_equal(g.offsets, offsets)
        np.testing.assert_array_equal(g.edges, edges)
        assert g.edges.dtype == np.int64
        if weights is None:
            assert g.weights is None
        else:
            np.testing.assert_array_equal(g.weights, w)

    def test_uint16_ids_up_to_65535_infer_num_vertices(self):
        src = np.array([65535, 0, 65535, 7], dtype=np.uint16)
        dst = np.array([0, 65535, 7, 65535], dtype=np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = CSRGraph.from_edge_list(src, dst)
        assert g.num_vertices == 65536
        self.assert_matches_reference(g, src, dst, 65536)

    def test_weights_follow_their_edges_across_chunks(self):
        rng = np.random.default_rng(4)
        m = 3 * _PLACE_CHUNK + 17
        src = rng.integers(0, 50, size=m).astype(np.uint32)
        dst = rng.integers(0, 50, size=m).astype(np.uint32)
        w = rng.random(m) + 0.5
        g = CSRGraph.from_edge_list(src, dst, num_vertices=50, weights=w)
        self.assert_matches_reference(g, src, dst, 50, w)

    def test_sources_repeating_across_chunk_boundaries(self):
        rng = np.random.default_rng(5)
        m = 4 * _PLACE_CHUNK + 3
        # Random sources with one long run spanning two boundaries.
        src = rng.integers(0, 9, size=m)
        src[_PLACE_CHUNK - 5 : 3 * _PLACE_CHUNK + 5] = 4
        dst = np.arange(m) % 1000  # order-revealing destinations
        g = CSRGraph.from_edge_list(src, dst, num_vertices=1000)
        self.assert_matches_reference(g, src, dst, 1000)

    def test_empty_input(self):
        g = CSRGraph.from_edge_list([], [])
        assert g.num_vertices == 0 and g.num_edges == 0
        g = CSRGraph.from_edge_list([], [], num_vertices=3, weights=[])
        np.testing.assert_array_equal(g.offsets, [0, 0, 0, 0])
        assert g.edges.dtype == np.int64 and g.weights.size == 0


class TestDegrees:
    def test_out_degree_scalar(self):
        g = simple_graph()
        assert g.out_degree(0) == 2
        assert g.out_degree(3) == 0

    def test_out_degrees_vector(self):
        g = simple_graph()
        np.testing.assert_array_equal(g.out_degrees(), [2, 1, 1, 0])

    def test_out_degree_vectorized(self):
        g = simple_graph()
        np.testing.assert_array_equal(g.out_degree(np.array([0, 1])), [2, 1])

    def test_in_degrees(self):
        g = simple_graph()
        np.testing.assert_array_equal(g.in_degrees(), [1, 1, 2, 0])

    def test_degree_sums_match(self):
        g = simple_graph()
        assert g.out_degrees().sum() == g.in_degrees().sum() == g.num_edges


class TestRoundTrip:
    def test_edge_list_round_trip(self, small_graph):
        src, dst = small_graph.to_edge_list()
        g2 = CSRGraph.from_edge_list(src, dst, num_vertices=small_graph.num_vertices)
        assert g2 == small_graph

    def test_equality(self):
        assert simple_graph() == simple_graph()

    def test_inequality(self):
        g2 = CSRGraph.from_edge_list(
            np.array([0, 0, 1, 2]), np.array([1, 2, 2, 1]), num_vertices=4
        )
        assert simple_graph() != g2

    def test_weighted_unweighted_inequality(self):
        g = simple_graph()
        assert g != g.with_uniform_weights()


class TestWeights:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))

    def test_rejects_non_positive_weights(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([0.0]))


class TestCsrBytes:
    def test_formula(self):
        g = simple_graph()
        assert g.csr_bytes(4) == (4 + 1) * 4 + 4 * 4
        assert g.csr_bytes(8) == (4 + 1) * 8 + 4 * 8

    def test_rejects_bad_vid(self):
        with pytest.raises(GraphError):
            simple_graph().csr_bytes(0)
