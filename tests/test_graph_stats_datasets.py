"""Tests for graph statistics and the scaled dataset registry."""

import numpy as np
import pytest

from repro.common import GraphError, PAPER_SCALE
from repro.graph import (
    build_graph,
    compute_stats,
    dataset,
    dataset_names,
    erdos_renyi,
    estimate_powerlaw_exponent,
    gini,
    powerlaw_graph,
)
from repro.common.rng import RngRegistry
from repro.experiments.harness import ExperimentContext

from .test_graph_generators import _csr_digest


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(100, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_is_high(self):
        v = np.zeros(100)
        v[0] = 100.0
        assert gini(v) > 0.9

    def test_all_zero(self):
        assert gini(np.zeros(10)) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            gini(np.array([]))

    def test_rejects_negative(self):
        with pytest.raises(GraphError):
            gini(np.array([-1.0, 2.0]))

    def test_invariant_to_scale(self, rng):
        v = rng.random(200)
        assert gini(v) == pytest.approx(gini(v * 13.0))


class TestPowerlawExponent:
    def test_recovers_exponent_roughly(self, rng):
        # Zipf(2.5) samples should give an MLE estimate near 2.5.
        samples = rng.zipf(2.5, size=20000)
        est = estimate_powerlaw_exponent(samples, dmin=2)
        assert 2.0 < est < 3.2

    def test_steeper_distribution_higher_estimate(self, rng):
        shallow = rng.zipf(2.0, size=20000)
        steep = rng.zipf(3.5, size=20000)
        assert estimate_powerlaw_exponent(steep, dmin=2) > estimate_powerlaw_exponent(
            shallow, dmin=2
        )

    def test_insufficient_data(self):
        assert np.isnan(estimate_powerlaw_exponent(np.array([5])))


class TestComputeStats:
    def test_fields_consistent(self, skewed_graph):
        st = compute_stats(skewed_graph)
        assert st.num_vertices == skewed_graph.num_vertices
        assert st.num_edges == skewed_graph.num_edges
        assert st.max_out_degree == int(skewed_graph.out_degrees().max())
        assert st.mean_out_degree == pytest.approx(
            skewed_graph.num_edges / skewed_graph.num_vertices
        )
        assert 0 <= st.degree_gini <= 1
        assert 0 < st.top1pct_edge_share <= 1

    def test_skew_ordering(self, rng, rngs):
        flat = erdos_renyi(1000, 20000, rngs.fresh("f"))
        steep = powerlaw_graph(1000, 20000, rngs.fresh("s"), exponent=1.0)
        assert compute_stats(steep).degree_gini > compute_stats(flat).degree_gini

    def test_row_renders(self, small_graph):
        row = compute_stats(small_graph).row("TT")
        assert "TT" in row and "|V|=" in row


class TestDatasetRegistry:
    def test_names(self):
        assert dataset_names() == ["TT", "FS", "CW", "R2B", "R8B"]

    def test_case_insensitive_lookup(self):
        assert dataset("tt").name == "TT"

    def test_unknown_dataset(self):
        with pytest.raises(GraphError):
            dataset("WAT")

    def test_paper_table_iv_values(self):
        tt = dataset("TT")
        assert tt.paper_vertices == int(41.6e6)
        assert tt.paper_edges == int(1.46e9)
        cw = dataset("CW")
        assert cw.paper_vertices == int(4.78e9)
        assert cw.subgraph_multiplier == 2  # 512 KB subgraphs for ClueWeb

    def test_scaling_factor(self):
        fs = dataset("FS")
        assert fs.scaled_edges == fs.paper_edges // PAPER_SCALE
        assert fs.default_walks == 4 * 10**8 // PAPER_SCALE

    def test_cw_has_more_walks(self):
        assert dataset("CW").default_walks > dataset("TT").default_walks

    def test_build_deterministic(self):
        a = build_graph("R2B", RngRegistry(7))
        b = build_graph("R2B", RngRegistry(7))
        assert a == b

    def test_build_seed_sensitivity(self):
        a = build_graph("R2B", RngRegistry(7))
        b = build_graph("R2B", RngRegistry(8))
        assert a != b

    def test_size_factor_shrinks(self):
        full = dataset("TT")
        g = full.build(RngRegistry(0).fresh("x"), size_factor=0.1)
        assert g.num_edges < full.scaled_edges // 5

    def test_size_factor_rejects_non_positive(self):
        with pytest.raises(GraphError):
            dataset("TT").build(RngRegistry(0).fresh("x"), size_factor=0)

    def test_cw_vertex_edge_ratio_preserved(self):
        # ClueWeb's distinguishing trait: |V| comparable to |E|.
        g = build_graph("CW", RngRegistry(1), size_factor=0.05)
        assert g.num_vertices > g.num_edges / 4

    def test_tt_is_most_skewed_social(self):
        rngs = RngRegistry(2)
        tt = build_graph("TT", rngs, size_factor=0.2)
        fs = build_graph("FS", rngs, size_factor=0.2)
        assert gini(tt.out_degrees()) > gini(fs.out_degrees())


#: sha256 of (offsets, edges) of every quick-scale dataset, as
#: ``ExperimentContext(seed=3, size_factor=0.5)`` builds it.  A change to
#: a generator or to the CSR builder must keep every graph byte-identical.
DATASET_GOLDEN = {
    "TT": "b18787cc8c40de5028c8e809ca8263583b074a3d5a80f5311c835ed026a931f9",
    "FS": "73eb3e0f43796eb59c33b3b98103f12e06b1fea6f657c621f7ea89295ec6393a",
    "CW": "6f3c26000011b5f53239be265b7e749bd5f779f7edea3e083f8348b327d3fec1",
    "R2B": "8724394b2267c634fbd5e1384610d7d4ef19e9f33893706010823a8e39d3e8c8",
    "R8B": "c1df2f16f3a55548af0182f8da34a117c65e045b98001546d7c0d5c793d608f9",
}


class TestQuickScaleDatasets:
    @pytest.mark.parametrize("name", sorted(DATASET_GOLDEN))
    def test_matches_digest(self, name):
        g = ExperimentContext(seed=3, size_factor=0.5).graph(name)
        assert _csr_digest(g) == DATASET_GOLDEN[name]
