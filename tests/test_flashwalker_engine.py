"""Integration tests for the FlashWalker engine."""

import numpy as np
import pytest

from repro.common import FaultConfig, FlashWalkerConfig, RngRegistry, SimulationError
from repro.core import FlashWalker
from repro.core.scheduler import SubgraphScheduler
from repro.graph import powerlaw_graph, ring_graph, rmat, star_graph
from repro.graph.generators import add_random_weights
from repro.walks import WalkSpec


@pytest.fixture(scope="module")
def medium_graph():
    return rmat(11, 8, RngRegistry(77).fresh("g"))  # 2048 verts, 16k edges


@pytest.fixture(scope="module")
def medium_run(medium_graph):
    fw = FlashWalker(medium_graph, seed=9)
    res = fw.run(num_walks=3000, spec=WalkSpec(length=6))
    return fw, res


class TestCompletion:
    def test_all_walks_complete(self, medium_run):
        fw, res = medium_run
        assert res.total_walks == 3000
        assert int(res.counters["walks_completed"]) == 3000
        assert fw.completed_walks == 3000

    def test_elapsed_positive_and_bounded(self, medium_run):
        _, res = medium_run
        assert 0 < res.elapsed < 1.0  # simulated seconds

    def test_hop_count_bounded_by_length(self, medium_run):
        _, res = medium_run
        assert 0 < res.hops <= 3000 * 6

    def test_in_transit_drained(self, medium_run):
        fw, _ = medium_run
        assert fw.in_transit == 0
        assert fw.foreign.total == 0
        assert fw.scheduler.total_pending == 0

    def test_traffic_recorded(self, medium_run):
        _, res = medium_run
        assert res.flash_read_bytes > 0
        assert res.channel_bytes > 0
        assert res.flash_read_bandwidth > 0

    def test_progress_sums_to_total(self, medium_run):
        _, res = medium_run
        assert res.metrics.progress.total == 3000


class TestDeterminism:
    def test_same_seed_same_result(self, medium_graph):
        r1 = FlashWalker(medium_graph, seed=4).run(num_walks=500)
        r2 = FlashWalker(medium_graph, seed=4).run(num_walks=500)
        assert r1.elapsed == r2.elapsed
        assert r1.flash_read_bytes == r2.flash_read_bytes
        assert r1.hops == r2.hops

    def test_different_seed_differs(self, medium_graph):
        r1 = FlashWalker(medium_graph, seed=4).run(num_walks=500)
        r2 = FlashWalker(medium_graph, seed=5).run(num_walks=500)
        assert r1.hops != r2.hops or r1.elapsed != r2.elapsed


class TestWorkloads:
    def test_explicit_starts(self, medium_graph):
        fw = FlashWalker(medium_graph, seed=1)
        starts = np.arange(100, dtype=np.int64)
        res = fw.run(starts=starts, spec=WalkSpec(length=3))
        assert res.total_walks == 100

    def test_stop_probability(self, medium_graph):
        fw = FlashWalker(medium_graph, seed=1)
        res = fw.run(num_walks=800, spec=WalkSpec(length=30, stop_probability=0.5))
        assert res.hops < 800 * 10  # geometric termination

    def test_biased_walks(self, medium_graph):
        g = add_random_weights(medium_graph, RngRegistry(3).fresh("w"))
        fw = FlashWalker(g, seed=1)
        res = fw.run(num_walks=500, spec=WalkSpec(length=4, biased=True))
        assert int(res.counters["walks_completed"]) == 500

    def test_rejects_no_walks(self, medium_graph):
        with pytest.raises(SimulationError):
            FlashWalker(medium_graph, seed=1).run()

    def test_rejects_empty_starts(self, medium_graph):
        with pytest.raises(SimulationError):
            FlashWalker(medium_graph, seed=1).run(starts=np.array([], dtype=int))

    def test_rerun_same_instance(self, medium_graph):
        fw = FlashWalker(medium_graph, seed=1)
        r1 = fw.run(num_walks=200)
        r2 = fw.run(num_walks=200)
        assert r1.total_walks == r2.total_walks == 200


class TestVisitSemantics:
    def test_ring_walks_march_forward(self):
        g = ring_graph(3000)
        fw = FlashWalker(g, seed=2)
        starts = np.zeros(50, dtype=np.int64)
        res = fw.run(starts=starts, spec=WalkSpec(length=5))
        # Ring walks are deterministic: every hop advances by one.
        assert res.hops == 250

    def test_visit_distribution_matches_reference(self):
        """Engine and reference walker agree statistically (hub share)."""
        g = powerlaw_graph(800, 16000, RngRegistry(11).fresh("g"), exponent=0.8)
        in_deg = g.in_degrees()
        hubs = np.argsort(in_deg)[-20:]
        fw = FlashWalker(g, seed=3)
        n = 4000
        res = fw.run(num_walks=n, spec=WalkSpec(length=1))
        # With length-1 walks, final positions are one uniform-neighbor
        # hop from a uniform start; hub share should approximate the
        # in-degree share of hubs among all edges.
        from repro.walks import reference_walks, start_vertices

        rng = RngRegistry(3).fresh("ref")
        starts = start_vertices(g, n, rng)
        ref = reference_walks(g, starts, WalkSpec(length=1), rng)
        ref_share = np.isin(ref["final"], hubs).mean()
        # The engine doesn't expose finals; compare the structural
        # expectation instead: hub in-degree share.
        edge_share = in_deg[hubs].sum() / g.num_edges
        assert abs(ref_share - edge_share) < 0.1


class TestDenseHandling:
    def test_star_graph_runs(self):
        g = star_graph(8000)  # one huge dense hub
        fw = FlashWalker(g, seed=6)
        res = fw.run(num_walks=400, spec=WalkSpec(length=4))
        assert int(res.counters["walks_completed"]) == 400
        # Hub is a hot dense vertex: pre-walks resolve at the board.
        assert res.counters["hot_subgraph_hits_board"] > 0

    def test_pre_walk_counted_when_hub_not_hot(self):
        g = star_graph(8000)
        cfg = FlashWalkerConfig().replace(board_hot_dense_vertices=0)
        fw = FlashWalker(g, cfg, seed=6)
        res = fw.run(num_walks=200, spec=WalkSpec(length=4))
        assert res.counters["pre_walks"] > 0
        assert int(res.counters["walks_completed"]) == 200


class TestPartitions:
    def test_multi_partition_execution(self):
        g = rmat(12, 8, RngRegistry(5).fresh("g"))  # ~40 blocks
        cfg = FlashWalkerConfig().replace(partition_subgraphs=8)
        fw = FlashWalker(g, cfg, seed=8)
        assert fw.n_partitions > 2
        res = fw.run(num_walks=1500, spec=WalkSpec(length=5))
        assert int(res.counters["walks_completed"]) == 1500
        assert res.counters["partition_switches"] > 0
        assert res.counters["foreigner_walks"] > 0

    def test_single_partition_no_foreigners(self, medium_run):
        fw, res = medium_run
        if fw.n_partitions == 1:
            assert res.counters.get("foreigner_walks", 0) == 0


class TestTopnRefreshCount:
    """``sched_topn_refreshes`` counts the whole run, although every
    partition switch builds a new scheduler."""

    # Two-walk buffer entries on a three-partition run (the spill golden's
    # config): 9 partition switches, so most refreshes happen in
    # schedulers the run has already replaced.
    CFG = dict(
        partition_subgraphs=4,
        board_hot_subgraphs=1,
        channel_hot_subgraphs=0,
        pwb_entry_walks=2,
    )

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(10, 8, RngRegistry(55).fresh("g"))

    def run(self, graph, cfg, **kw):
        return FlashWalker(graph, cfg, seed=9).run(
            num_walks=800, spec=WalkSpec(length=5), **kw
        )

    def test_counts_every_partition(self, graph, monkeypatch):
        calls = []
        refresh = SubgraphScheduler._refresh_top

        def counted(sched, chip):
            calls.append(chip)
            refresh(sched, chip)

        monkeypatch.setattr(SubgraphScheduler, "_refresh_top", counted)
        res = self.run(graph, FlashWalkerConfig().replace(**self.CFG))
        assert res.counters["partition_switches"] > 0
        assert res.counters["sched_topn_refreshes"] == len(calls)

    def test_resume_reports_the_run_total(self, graph):
        cfg = FlashWalkerConfig().replace(
            **self.CFG,
            faults=FaultConfig(enabled=True, checkpoint_interval=50e-6),
        )
        fw = FlashWalker(graph, cfg, seed=9)
        full = fw.run(num_walks=800, spec=WalkSpec(length=5))
        crashed = FlashWalker(graph, cfg, seed=9)
        with pytest.raises(SimulationError):
            crashed.run(
                num_walks=800,
                spec=WalkSpec(length=5),
                max_events=fw.sim.events_executed - 5,
            )
        ckpt = crashed.latest_checkpoint
        switches = ckpt.data["metrics"]["counters"]["partition_switches"]["total"]
        assert switches > 0
        resumed = FlashWalker(graph, cfg, seed=9).resume(checkpoint=ckpt)
        assert resumed.counters == full.counters
        assert resumed.elapsed == full.elapsed


class TestOptimizationToggles:
    @pytest.fixture(scope="class")
    def toggle_results(self):
        # A graph with enough blocks that hot subgraphs stay a small
        # fraction (the regime the paper's Fig. 9 operates in).
        g = rmat(13, 16, RngRegistry(21).fresh("g"))
        out = {}
        for label, (wq, hs, ss) in {
            "none": (False, False, False),
            "all": (True, True, True),
        }.items():
            cfg = FlashWalkerConfig().replace(
                board_hot_subgraphs=8, channel_hot_subgraphs=1
            ).with_optimizations(wq=wq, hs=hs, ss=ss)
            fw = FlashWalker(g, cfg, seed=12)
            out[label] = fw.run(num_walks=8000, spec=WalkSpec(length=6))
        return out

    def test_all_opts_not_slower(self, toggle_results):
        assert toggle_results["all"].elapsed <= toggle_results["none"].elapsed * 1.15

    def test_cache_only_active_with_wq(self, toggle_results):
        assert toggle_results["none"].counters["query_cache_hits"] == 0
        assert toggle_results["all"].counters["query_cache_hits"] > 0

    def test_hot_hits_only_with_hs(self, medium_graph):
        cfg = FlashWalkerConfig().with_optimizations(wq=True, hs=False, ss=True)
        fw = FlashWalker(medium_graph, cfg, seed=12)
        res = fw.run(num_walks=500)
        assert res.counters["hot_subgraph_hits_channel"] == 0


class TestBandwidthSeries:
    def test_series_shapes(self, medium_run):
        _, res = medium_run
        series = res.bandwidth_series(rebins=20)
        for name in ("flash_read", "flash_write", "channel", "progress"):
            t, v = series[name]
            assert t.shape == v.shape
        # progression ends at ~100%
        _, frac = series["progress"]
        assert frac[-1] == pytest.approx(1.0, abs=1e-9)

    def test_read_bandwidth_below_theoretical_max(self, medium_run):
        fw, res = medium_run
        t, bw = res.bandwidth_series(rebins=20)["flash_read"]
        assert bw.max() <= fw.cfg.ssd.aggregate_flash_read_bytes_per_sec * 1.01
