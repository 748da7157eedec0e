"""Tests for the subgraph mapping table and the range table."""

import numpy as np
import pytest

from repro.common import ReproError
from repro.core import RangeTable, SubgraphMappingTable, binary_search_steps
from repro.graph import partition_graph


@pytest.fixture
def part(skewed_graph):
    return partition_graph(skewed_graph, 4096)


class TestBinarySearchSteps:
    def test_values(self):
        assert binary_search_steps(1) == 1
        assert binary_search_steps(2) == 2
        assert binary_search_steps(255) == 8
        assert binary_search_steps(2048) == 12

    def test_monotone(self):
        steps = [binary_search_steps(n) for n in range(1, 300)]
        assert all(b >= a for a, b in zip(steps, steps[1:]))

    def test_rejects_zero(self):
        with pytest.raises(ReproError):
            binary_search_steps(0)


class TestSubgraphMappingTable:
    def test_full_table_lookup_matches_partitioning(self, part):
        table = SubgraphMappingTable(part, 0, part.num_blocks - 1)
        vs = np.arange(0, part.graph.num_vertices, 13)
        blocks, steps = table.lookup(vs)
        np.testing.assert_array_equal(blocks, part.block_of_vertex(vs))
        assert steps == binary_search_steps(part.num_blocks)

    def test_partial_table_span(self, part):
        if part.num_blocks < 8:
            pytest.skip("too few blocks")
        table = SubgraphMappingTable(part, 2, 5)
        assert table.vertex_lo == part.block_lo[2]
        assert table.vertex_hi == part.block_hi[5]
        assert table.n_entries == 4

    def test_contains_vertices(self, part):
        if part.num_blocks < 4:
            pytest.skip("too few blocks")
        table = SubgraphMappingTable(part, 1, 2)
        inside = np.array([part.block_lo[1], part.block_hi[2]])
        outside = np.array([0, part.graph.num_vertices - 1])
        assert table.contains_vertices(inside).all()
        assert not table.contains_vertices(outside).any()

    def test_scoped_lookup_cheaper(self, part):
        table = SubgraphMappingTable(part, 0, part.num_blocks - 1)
        v = np.array([int(part.block_lo[0])])
        _, full = table.lookup(v)
        _, scoped = table.lookup(v, scope_entries=4)
        assert scoped < full

    def test_zero_scope_clamps_to_one_entry(self, part):
        # scope_entries=0 (an empty accelerator scope) must clamp to a
        # 1-entry search, not emit zero/negative binary-search steps.
        table = SubgraphMappingTable(part, 0, part.num_blocks - 1)
        v = np.array([int(part.block_lo[0])])
        blocks, steps = table.lookup(v, scope_entries=0)
        assert steps == binary_search_steps(1)
        _, one = table.lookup(v, scope_entries=1)
        assert steps == one
        np.testing.assert_array_equal(blocks, part.block_of_vertex(v))

    def test_lookup_outside_span_rejected(self, part):
        if part.num_blocks < 4:
            pytest.skip("too few blocks")
        table = SubgraphMappingTable(part, 0, 1)
        with pytest.raises(ReproError):
            table.lookup(np.array([part.graph.num_vertices - 1]))

    def test_lookup_stats_accumulate(self, part):
        table = SubgraphMappingTable(part, 0, part.num_blocks - 1)
        table.lookup(np.arange(10))
        assert table.lookups == 10
        assert table.search_steps_total == 10 * table.full_search_steps()

    def test_empty_lookup(self, part):
        table = SubgraphMappingTable(part, 0, part.num_blocks - 1)
        blocks, steps = table.lookup(np.zeros(0, dtype=np.int64))
        assert blocks.size == 0 and steps == 0

    def test_dense_vertex_maps_to_first_block(self, part):
        if not part.dense_meta:
            pytest.skip("no dense vertices")
        table = SubgraphMappingTable(part, 0, part.num_blocks - 1)
        v, meta = next(iter(part.dense_meta.items()))
        blocks, _ = table.lookup(np.array([v]))
        assert blocks[0] == meta.first_block

    def test_rejects_bad_range(self, part):
        with pytest.raises(ReproError):
            SubgraphMappingTable(part, 5, 2)
        with pytest.raises(ReproError):
            SubgraphMappingTable(part, 0, part.num_blocks)


class TestRangeTable:
    def test_reduction_factor(self, part):
        rt = RangeTable(part, 0, part.num_blocks - 1, 8)
        assert rt.n_ranges == -(-part.num_blocks // 8)
        # Section III-C: the table shrinks by the range size.
        assert rt.n_ranges <= part.num_blocks // 8 + 1

    def test_query_ranges_consistent(self, part):
        rt = RangeTable(part, 0, part.num_blocks - 1, 8)
        vs = np.arange(0, part.graph.num_vertices, 11)
        rid, inside, steps = rt.query(vs)
        assert inside.all()
        blocks = part.block_of_vertex(vs)
        # Dense vertices span multiple slices (and so possibly multiple
        # ranges); the approximate search is only used for non-dense
        # walks, so check those.
        dense = np.zeros(part.graph.num_vertices, dtype=bool)
        if part.dense_meta:
            dense[np.fromiter(part.dense_meta, dtype=np.int64)] = True
        plain = ~dense[vs]
        np.testing.assert_array_equal(rid[plain], blocks[plain] // 8)
        assert steps == binary_search_steps(rt.n_ranges)

    def test_detects_foreigners(self, part):
        if part.num_blocks < 8:
            pytest.skip("too few blocks")
        rt = RangeTable(part, 0, 3, 2)
        beyond = np.array([part.graph.num_vertices - 1])
        rid, inside, _ = rt.query(beyond)
        assert not inside[0]
        assert rid[0] == -1

    def test_cheaper_than_full_search(self, part):
        if part.num_blocks < 64:
            pytest.skip("too few blocks")
        rt = RangeTable(part, 0, part.num_blocks - 1, 16)
        full = binary_search_steps(part.num_blocks)
        assert rt.search_steps() < full

    def test_empty_query(self, part):
        rt = RangeTable(part, 0, part.num_blocks - 1, 8)
        rid, inside, steps = rt.query(np.zeros(0, dtype=np.int64))
        assert rid.size == 0 and inside.size == 0 and steps == 0

    def test_rejects_bad_range_size(self, part):
        with pytest.raises(ReproError):
            RangeTable(part, 0, part.num_blocks - 1, 0)
