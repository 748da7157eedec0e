"""Tests for graph partitioning into fixed-size graph blocks."""

import numpy as np
import pytest

from repro.common import PartitionError
from repro.graph import partition_graph, ring_graph, star_graph


class TestBasicPartitioning:
    def test_ring_packs_many_vertices_per_block(self):
        g = ring_graph(1000)
        p = partition_graph(g, 4096)
        p.verify()
        # 4096/4 - 2 = 1022 units; each vertex costs 1 offset + 1 edge.
        assert p.num_blocks == 2
        assert p.num_dense_vertices == 0

    def test_contiguous_coverage(self, small_graph):
        p = partition_graph(small_graph, 4096)
        p.verify()
        assert p.block_lo[0] == 0
        assert p.block_hi[-1] == small_graph.num_vertices - 1

    def test_edges_partitioned_exactly_once(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        assert int(p.block_edges.sum()) == skewed_graph.num_edges
        p.verify()

    def test_block_bytes_within_budget(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        for b in range(p.num_blocks):
            assert p.block_bytes(b) <= 4096

    def test_bigger_blocks_fewer_partitions(self, skewed_graph):
        p1 = partition_graph(skewed_graph, 4096)
        p2 = partition_graph(skewed_graph, 16384)
        assert p2.num_blocks < p1.num_blocks

    def test_rejects_tiny_subgraph(self, small_graph):
        with pytest.raises(PartitionError):
            partition_graph(small_graph, 8)

    def test_rejects_bad_vid_bytes(self, small_graph):
        with pytest.raises(PartitionError):
            partition_graph(small_graph, 4096, vid_bytes=0)


class TestDenseVertices:
    def test_star_hub_is_dense(self):
        g = star_graph(5000)  # hub degree 5000 > 4 KB block capacity
        p = partition_graph(g, 4096)
        p.verify()
        assert p.is_dense_vertex(0)
        assert not p.is_dense_vertex(1)
        mask = p.dense_vertex_mask
        assert mask.tolist() == [p.is_dense_vertex(v) for v in range(g.num_vertices)]
        assert not mask.flags.writeable
        meta = p.dense_meta[0]
        assert meta.out_degree == 5000
        assert meta.n_blocks == -(-5000 // meta.edges_per_block)

    def test_dense_blocks_cover_all_edges(self):
        g = star_graph(5000)
        p = partition_graph(g, 4096)
        meta = p.dense_meta[0]
        dense_edges = p.block_edges[p.is_dense_block].sum()
        assert dense_edges == 5000
        assert meta.last_block_degree == 5000 - (meta.n_blocks - 1) * meta.edges_per_block

    def test_dense_block_edge_slices_contiguous(self):
        g = star_graph(3000)
        p = partition_graph(g, 4096)
        dense_idx = np.flatnonzero(p.is_dense_block)
        los = p.block_edge_lo[dense_idx]
        sizes = p.block_edges[dense_idx]
        np.testing.assert_array_equal(los[1:], np.cumsum(sizes)[:-1])

    def test_block_of_vertex_maps_dense_to_first_block(self):
        g = star_graph(5000)
        p = partition_graph(g, 4096)
        meta = p.dense_meta[0]
        assert p.block_of_vertex(0) == meta.first_block

    def test_skewed_graph_has_dense_vertices(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        assert p.num_dense_vertices > 0
        p.verify()


class TestVertexLookup:
    def test_scalar_and_vector_agree(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        vs = np.arange(0, skewed_graph.num_vertices, 37)
        vec = p.block_of_vertex(vs)
        for v, b in zip(vs.tolist(), vec.tolist()):
            assert p.block_of_vertex(int(v)) == b

    def test_lookup_consistent_with_ranges(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        vs = np.arange(skewed_graph.num_vertices)
        blocks = p.block_of_vertex(vs)
        assert np.all(vs >= p.block_lo[blocks])
        assert np.all(vs <= p.block_hi[blocks])

    def test_rejects_out_of_range(self, small_graph):
        p = partition_graph(small_graph, 4096)
        with pytest.raises(PartitionError):
            p.block_of_vertex(small_graph.num_vertices)


class TestGroupings:
    def test_partition_of_block(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        assert p.partition_of_block(0, 16) == 0
        assert p.partition_of_block(16, 16) == 1

    def test_num_partitions_rounding(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        n = p.num_partitions(16)
        assert n == -(-p.num_blocks // 16)

    def test_partition_block_range(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        first, last = p.partition_block_range(0, 16)
        assert (first, last) == (0, min(15, p.num_blocks - 1))
        n = p.num_partitions(16)
        first, last = p.partition_block_range(n - 1, 16)
        assert last == p.num_blocks - 1

    def test_partition_range_rejects_bad_id(self, small_graph):
        p = partition_graph(small_graph, 4096)
        with pytest.raises(PartitionError):
            p.partition_block_range(99, 4)

    def test_range_table_covers_all_vertices(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        lo, hi = p.range_table(8)
        assert lo[0] == 0
        assert hi[-1] == skewed_graph.num_vertices - 1
        assert np.all(lo[1:] >= lo[:-1])

    def test_range_table_reduction_factor(self, skewed_graph):
        p = partition_graph(skewed_graph, 4096)
        lo, _ = p.range_table(8)
        assert lo.size == -(-p.num_blocks // 8)

    def test_rejects_bad_grouping(self, small_graph):
        p = partition_graph(small_graph, 4096)
        with pytest.raises(PartitionError):
            p.range_table(0)
        with pytest.raises(PartitionError):
            p.num_partitions(0)


class TestVerify:
    def test_verify_catches_edge_count_mismatch(self, small_graph):
        p = partition_graph(small_graph, 4096)
        p.block_edges = p.block_edges.copy()
        p.block_edges[0] += 1
        with pytest.raises(PartitionError):
            p.verify()

    def test_verify_catches_coverage_gap(self, small_graph):
        p = partition_graph(small_graph, 4096)
        if p.num_blocks < 2:
            pytest.skip("graph packs into one block")
        p.block_lo = p.block_lo.copy()
        p.block_lo[1] += 1
        with pytest.raises(PartitionError):
            p.verify()


class TestWeightedPartitioning:
    """Section III-B: biased walks need CL storage, so weighted blocks
    hold fewer edges."""

    def test_weighted_needs_more_blocks(self, skewed_graph):
        unw = partition_graph(skewed_graph, 4096)
        w = partition_graph(skewed_graph.with_uniform_weights(), 4096)
        w.verify()
        assert w.num_blocks > unw.num_blocks

    def test_weighted_dense_threshold_halved(self):
        # A vertex with ~600 out-edges fits a 4 KB unweighted block
        # (~1000 edge slots) but not a weighted one (~500 slots).
        g = star_graph(600)
        assert partition_graph(g, 4096).num_dense_vertices == 0
        gw = star_graph(600).with_uniform_weights()
        assert partition_graph(gw, 4096).num_dense_vertices == 1

    def test_weighted_block_bytes_within_budget(self, skewed_graph):
        w = partition_graph(skewed_graph.with_uniform_weights(), 4096)
        for b in range(w.num_blocks):
            assert w.block_bytes(b) <= 4096
