"""Tests for graph generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.common import GraphError
from repro.graph import (
    add_random_weights,
    complete_graph,
    dataset,
    erdos_renyi,
    path_graph,
    powerlaw_graph,
    ring_graph,
    rmat,
    star_graph,
)
from repro.graph.stats import gini


class TestRmat:
    def test_sizes(self, rng):
        g = rmat(8, 4, rng)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_deterministic(self, rngs):
        a = rmat(8, 4, rngs.fresh("r"))
        b = rmat(8, 4, rngs.fresh("r"))
        assert a == b

    def test_skewed_degrees(self, rng):
        g = rmat(12, 16, rng)
        deg = g.out_degrees()
        assert gini(deg) > 0.4  # RMAT is heavily skewed
        assert deg.max() > 10 * deg.mean()

    def test_permutation_decorrelates_id_and_degree(self, rng):
        g = rmat(10, 8, rng, permute=True)
        deg = g.out_degrees().astype(float)
        ids = np.arange(g.num_vertices, dtype=float)
        corr = np.corrcoef(ids, deg)[0, 1]
        assert abs(corr) < 0.2

    def test_unpermuted_concentrates_low_ids(self, rng):
        g = rmat(10, 8, rng, permute=False)
        deg = g.out_degrees()
        half = g.num_vertices // 2
        assert deg[:half].sum() > deg[half:].sum()

    def test_dedup_removes_duplicates(self, rng):
        g = rmat(6, 16, rng, dedup=True)
        src, dst = g.to_edge_list()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == g.num_edges

    def test_rejects_bad_scale(self, rng):
        with pytest.raises(GraphError):
            rmat(-1, 4, rng)
        with pytest.raises(GraphError):
            rmat(31, 4, rng)

    def test_rejects_bad_probs(self, rng):
        with pytest.raises(GraphError):
            rmat(5, 4, rng, a=0.9, b=0.9, c=0.9)


def _traced_peak(fn, *args, **kw) -> int:
    """Peak bytes traced while ``fn(*args, **kw)`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _csr_digest(g) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.offsets, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(g.edges, dtype="<i8").tobytes())
    return h.hexdigest()


#: (scale, edge_factor, keyword args, seed) -> sha256 of (offsets, edges),
#: computed with the one-shot generator that drew each level's m row
#: and m column doubles in single calls.  The chunked generator must
#: reproduce them: same stream, same graph.  (14, 5) and (13, 3) end in
#: a partial chunk; (0, 4) has no levels at all.
RMAT_GOLDEN = [
    (16, 30, {}, 1, "a34c51ec30bdc98f366fb01d92ee292cfe094001a32c911e67e7a5ece5801cd6"),
    (14, 5, {}, 2, "54cb8a527493feedb9d6bfd4ef08834415adeedde369386a32c50c4425175139"),
    (12, 8, {"a": 0.45, "b": 0.15, "c": 0.15}, 3,
     "183f9c471b520f425c4b9a9d3b00ce50620e0b98726dbbabe2c61ec5d5b91798"),
    (10, 8, {"dedup": True}, 4,
     "84916b03bd325f65c8fc5615120a6f6f886eef997e060583cd023b50105feae0"),
    (10, 8, {"permute": False}, 5,
     "e741e859b8220ab7dacafff47cc8a7afb96aa5aacea1679929a043656aab615e"),
    (6, 16, {"dedup": True, "permute": False}, 6,
     "605217a52ca455cbe1a6901e276f4de89fe89ed768f0a8c0f3f87ae069e52e02"),
    (13, 3, {}, 7, "952f2ea3b3526d7cfd84ef3187afa984d8c45b235e1662795a0fc013f8aae117"),
    (0, 4, {}, 8, "b6c4912999bdf4ca9206d1b5fe2266545a46a1119448aab8da97be65145cecaf"),
]


class TestRmatStream:
    @pytest.mark.parametrize(
        "scale, edge_factor, kw, seed, digest",
        RMAT_GOLDEN,
        ids=[f"{c[0]}x{c[1]}-seed{c[3]}" for c in RMAT_GOLDEN],
    )
    def test_matches_one_shot_digest(self, scale, edge_factor, kw, seed, digest):
        g = rmat(scale, edge_factor, np.random.default_rng(seed), **kw)
        assert _csr_digest(g) == digest

    def test_leaves_the_stream_where_one_shot_draws_did(self):
        rng = np.random.default_rng(2)
        rmat(14, 5, rng)
        assert rng.random() == 0.001519182317673784

    def test_traced_peak_below_six_edge_columns(self):
        m = (1 << 16) * 30
        peak = _traced_peak(rmat, 16, 30, np.random.default_rng(1))
        # The one-shot generator peaked at 8.3 int64 edge columns and an
        # argsort-and-gather CSR build at 5.2; uint16 IDs and counting
        # placement take 1.7.
        assert peak < 2.5 * 8 * m


class TestPowerlaw:
    def test_sizes(self, rng):
        g = powerlaw_graph(500, 5000, rng)
        assert g.num_vertices == 500
        assert g.num_edges == 5000

    def test_skew_increases_with_exponent(self, rngs):
        flat = powerlaw_graph(1000, 20000, rngs.fresh("a"), exponent=0.2)
        steep = powerlaw_graph(1000, 20000, rngs.fresh("b"), exponent=1.2)
        assert gini(steep.out_degrees()) > gini(flat.out_degrees())

    def test_no_self_loops_by_default(self, rng):
        g = powerlaw_graph(100, 2000, rng)
        src, dst = g.to_edge_list()
        assert not np.any(src == dst)

    def test_self_loops_allowed(self, rng):
        g = powerlaw_graph(50, 5000, rng, self_loops=True)
        src, dst = g.to_edge_list()
        assert np.any(src == dst)  # statistically certain at this density

    def test_rejects_bad_exponent(self, rng):
        with pytest.raises(GraphError):
            powerlaw_graph(10, 10, rng, exponent=0.0)

    def test_zero_edges(self, rng):
        g = powerlaw_graph(10, 0, rng)
        assert g.num_edges == 0

    def test_traced_peak_at_tt_size_below_four_and_a_half_edge_columns(self):
        tt = dataset("TT")
        nv, ne = tt.scaled_vertices, tt.scaled_edges
        peak = _traced_peak(powerlaw_graph, nv, ne, np.random.default_rng(1), 0.8)
        # An argsort-and-gather CSR build peaked at 5.4 int64 edge columns.
        assert peak < 4.5 * 8 * ne


class TestErdosRenyi:
    def test_sizes(self, rng):
        g = erdos_renyi(100, 500, rng)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_roughly_uniform(self, rng):
        g = erdos_renyi(100, 50000, rng)
        deg = g.out_degrees()
        assert gini(deg) < 0.1

    def test_rejects_bad_counts(self, rng):
        with pytest.raises(GraphError):
            erdos_renyi(0, 5, rng)
        with pytest.raises(GraphError):
            erdos_renyi(5, -1, rng)


class TestStructuredGraphs:
    def test_ring(self):
        g = ring_graph(5)
        np.testing.assert_array_equal(g.out_degrees(), np.ones(5))
        assert g.neighbors(4)[0] == 0

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 20
        np.testing.assert_array_equal(g.out_degrees(), np.full(5, 4))
        src, dst = g.to_edge_list()
        assert not np.any(src == dst)

    def test_star_bidirectional(self):
        g = star_graph(10)
        assert g.out_degree(0) == 10
        assert all(g.out_degree(i) == 1 for i in range(1, 11))

    def test_star_directed_only(self):
        g = star_graph(10, bidirectional=False)
        assert g.out_degree(0) == 10
        assert g.out_degree(1) == 0

    def test_path(self):
        g = path_graph(4)
        assert g.out_degree(3) == 0  # sink
        assert g.num_edges == 3

    def test_single_vertex_path(self):
        g = path_graph(1)
        assert g.num_edges == 0

    def test_rejects_empty(self):
        for fn in (ring_graph, complete_graph, path_graph):
            with pytest.raises(GraphError):
                fn(0)
        with pytest.raises(GraphError):
            star_graph(0)


class TestAddRandomWeights:
    def test_weights_in_range(self, small_graph, rng):
        g = add_random_weights(small_graph, rng, low=0.5, high=2.0)
        assert g.is_weighted
        assert g.weights.min() >= 0.5
        assert g.weights.max() < 2.0

    def test_structure_preserved(self, small_graph, rng):
        g = add_random_weights(small_graph, rng)
        np.testing.assert_array_equal(g.offsets, small_graph.offsets)
        np.testing.assert_array_equal(g.edges, small_graph.edges)

    def test_rejects_bad_range(self, small_graph, rng):
        with pytest.raises(GraphError):
            add_random_weights(small_graph, rng, low=2.0, high=1.0)
