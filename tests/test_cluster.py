"""Cluster layer: sharded serving, vertex placement, fault-injected
migration link, replica failover, and cluster-wide conservation."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterService,
    HealthBoard,
    NetworkLink,
    ShardRuntime,
    VertexPlacement,
)
from repro.cluster.cluster import CLUSTER_SCHEMA_VERSION
from repro.common import (
    ConfigError,
    DurabilityConfig,
    FaultConfig,
    FlashWalkerConfig,
    FTLConfig,
    InvariantViolation,
    RetryPolicy,
    RngRegistry,
    SimulationError,
)
from repro.graph import rmat
from repro.service.config import ServiceConfig
from repro.service.request import QueryRequest
from repro.walks import WalkSpec

from .test_service import LEDGER_CHECKS, tamper_ledger

ENGINE = dict(
    partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0
)


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, RngRegistry(55).fresh("g"))


def shard_cfg(faults=None, *, durability=None):
    return FlashWalkerConfig(
        **ENGINE,
        durability=durability
        or DurabilityConfig(enabled=True, journal_interval=25e-6),
        faults=faults or FaultConfig(),
    )


def requests(n=4, *, num_walks=16, length=6, gap=30e-6):
    return [
        QueryRequest(query_id=i, arrival=i * gap, num_walks=num_walks,
                     length=length, deadline=50e-3)
        for i in range(n)
    ]


def cluster_cfg(**kw):
    kw.setdefault("n_shards", 3)
    kw.setdefault("segment_hops", 2)
    kw.setdefault("max_walk_length", 6)
    kw.setdefault("link_loss_prob", 0.05)
    kw.setdefault("link_corrupt_prob", 0.02)
    return ClusterConfig(**kw)


def run_cluster(graph, ccfg=None, *, seed=7, jobs=1, faults=None, reqs=None):
    svc = ClusterService(
        graph, shard_cfg(faults), ccfg or cluster_cfg(), seed=seed, jobs=jobs
    )
    return svc, svc.run(reqs if reqs is not None else requests())


def canonical(report, *, drop=()):
    return json.dumps(
        {k: v for k, v in report.items() if k not in drop}, sort_keys=True
    )


# ----------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_first_attempt_free_then_geometric(self):
        p = RetryPolicy(base_delay=1e-5, factor=2.0, max_delay=4e-5,
                        max_attempts=6).validate()
        assert p.delay(0) == 0.0
        assert p.delay(1) == pytest.approx(1e-5)
        assert p.delay(2) == pytest.approx(2e-5)
        assert p.delay(3) == pytest.approx(4e-5)
        # Capped from here on.
        assert p.delay(4) == pytest.approx(4e-5)
        assert p.delay(5) == pytest.approx(4e-5)

    def test_jitter_is_deterministic_and_bounded(self):
        mk = lambda salt: RetryPolicy(
            base_delay=1e-5, jitter_frac=0.5, seed=11, salt=salt
        ).validate()
        a, b = mk("rpc"), mk("rpc")
        assert [a.delay(k) for k in range(8)] == [b.delay(k) for k in range(8)]
        for k in range(1, 8):
            raw = min(a.max_delay, a.base_delay * a.factor ** (k - 1))
            assert raw <= a.delay(k) <= raw * 1.5
        # A different salt draws a different (still deterministic) schedule.
        assert [mk("other").delay(k) for k in range(1, 8)] != [
            a.delay(k) for k in range(1, 8)
        ]

    def test_exhaustion_and_total_delay(self):
        p = RetryPolicy(base_delay=1e-5, max_attempts=3).validate()
        assert not p.exhausted(2)
        assert p.exhausted(3)
        assert p.total_delay() == pytest.approx(p.delay(1) + p.delay(2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_delay=-1.0),
            dict(factor=0.5),
            dict(max_delay=-1.0),
            dict(max_attempts=0),
            dict(jitter_frac=1.5),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs).validate()


# -------------------------------------------- bounded invariant dumps


class TestInvariantViolationBounding:
    def test_long_sequences_truncated_with_marker(self):
        walk_table = [(i, "queued", 0, 3) for i in range(1000)]
        exc = InvariantViolation(
            "boom", violations=["x"], state={"walk_table": walk_table}
        )
        dumped = exc.state["walk_table"]
        assert len(dumped) == InvariantViolation.MAX_STATE_ITEMS + 1
        assert dumped[-1] == "... (1000 total, truncated)"

    def test_wide_dicts_truncated_with_marker(self):
        exc = InvariantViolation(
            "boom", state={f"k{i}": i for i in range(100)}
        )
        assert len(exc.state) == InvariantViolation.MAX_STATE_ITEMS + 1
        assert exc.state["..."] == "(100 total, truncated)"

    def test_long_strings_truncated(self):
        exc = InvariantViolation("boom", state={"blob": "x" * 10_000})
        assert exc.state["blob"].startswith("x" * InvariantViolation.MAX_STATE_CHARS)
        assert exc.state["blob"].endswith("(10000 chars, truncated)")

    def test_depth_guard(self):
        nested = {"a": {"b": {"c": {"d": {"e": 1}}}}}
        exc = InvariantViolation("boom", state=nested)
        assert exc.state["a"]["b"]["c"]["d"] == "... (max depth, truncated)"

    def test_small_state_kept_verbatim_and_context_carried(self):
        exc = InvariantViolation(
            "boom", state={"now": 1.5, "walks": [1, 2]}, context="cluster"
        )
        assert exc.state == {"now": 1.5, "walks": [1, 2]}
        assert exc.context == "cluster"


# --------------------------------------------------------------- placement


class TestVertexPlacement:
    def test_hash_covers_all_shards_deterministically(self):
        pl = VertexPlacement("hash", 4, 512)
        verts = np.arange(512)
        owners = pl.shard_of(verts)
        assert set(owners.tolist()) == {0, 1, 2, 3}
        assert np.array_equal(owners, VertexPlacement("hash", 4, 512).shard_of(verts))
        assert int(pl.counts(verts).sum()) == 512

    def test_range_is_contiguous_and_monotone(self):
        pl = VertexPlacement("range", 4, 512)
        owners = pl.shard_of(np.arange(512))
        assert np.all(np.diff(owners) >= 0)
        assert np.array_equal(np.unique(owners), np.arange(4))
        # Equal spans for an evenly divisible vertex space.
        assert np.array_equal(pl.counts(np.arange(512)), np.full(4, 128))

    def test_out_of_range_vertex_rejected(self):
        pl = VertexPlacement("hash", 2, 16)
        with pytest.raises(ConfigError):
            pl.shard_of([16])
        with pytest.raises(ConfigError):
            pl.shard_of([-1])

    @pytest.mark.parametrize(
        "args", [("ring", 2, 16), ("hash", 0, 16), ("hash", 2, 0)]
    )
    def test_bad_construction_rejected(self, args):
        with pytest.raises(ConfigError):
            VertexPlacement(*args)


# --------------------------------------------------------------------- link


class TestNetworkLink:
    def test_lossless_delivery_charges_latency_plus_bytes(self):
        cfg = cluster_cfg(link_loss_prob=0.0, link_corrupt_prob=0.0)
        link = NetworkLink(cfg, seed=3)
        t = link.transmit(1e-3, 10)
        assert t == pytest.approx(
            1e-3 + cfg.link_latency + 10 * cfg.walk_bytes / cfg.link_bandwidth
        )
        s = link.stats()
        assert s["messages"] == 1 and s["walks_moved"] == 10
        assert s["losses"] == s["retransmits"] == s["escalations"] == 0

    def test_faults_delay_but_never_drop(self):
        cfg = cluster_cfg(link_loss_prob=0.6, link_corrupt_prob=0.2,
                          rpc_max_attempts=3)
        link = NetworkLink(cfg, seed=3)
        deliveries = [link.transmit(float(i) * 1e-4, 4) for i in range(50)]
        assert all(
            d > i * 1e-4 for i, d in enumerate(deliveries)
        )  # every message delivered, strictly after send
        s = link.stats()
        assert s["losses"] + s["corruptions"] >= 1
        assert s["retransmits"] >= 1
        assert s["escalations"] >= 1  # exhausted loops hit the fallback path
        assert s["messages"] == 50 and s["walks_moved"] == 200

    def test_same_seed_same_fault_schedule(self):
        cfg = cluster_cfg(link_loss_prob=0.3, link_corrupt_prob=0.1)
        a, b = NetworkLink(cfg, seed=9), NetworkLink(cfg, seed=9)
        assert [a.transmit(0.0, 2) for _ in range(30)] == [
            b.transmit(0.0, 2) for _ in range(30)
        ]
        assert a.stats() == b.stats()


# ------------------------------------------------------------------- config


class TestClusterConfig:
    def test_defaults_validate(self):
        ClusterConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=0),
            dict(placement="ring"),
            dict(segment_hops=0),
            dict(link_bandwidth=0.0),
            dict(link_loss_prob=1.0),
            dict(link_corrupt_prob=-0.1),
            dict(walk_bytes=0),
            dict(kill_schedule=((1e-3, 7),)),  # shard out of range
            dict(kill_schedule=((-1e-6, 0),)),
            dict(kill_epoch_frac=1.5),
            dict(max_inflight_walks_per_shard=0),
            dict(max_epochs=0),
            dict(rpc_max_attempts=0),
            dict(admission_policy="lifo"),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs).validate()

    def test_service_cfg_mirrors_admission_knobs(self):
        ccfg = cluster_cfg(queue_capacity=5, admission_policy="shed-oldest",
                           breaker_cooldown=1e-3)
        scfg = ccfg.service_cfg()
        assert isinstance(scfg, ServiceConfig)
        assert scfg.queue_capacity == 5
        assert scfg.admission_policy == "shed-oldest"
        assert scfg.breaker_cooldown == 1e-3
        assert scfg.max_inflight_walks == ccfg.max_inflight_walks_per_shard

    def test_rpc_policy_uses_shared_retry_class(self):
        p = cluster_cfg(rpc_base_delay=2e-6, rpc_max_attempts=4).rpc_policy(7)
        assert isinstance(p, RetryPolicy)
        assert p.base_delay == 2e-6 and p.max_attempts == 4
        assert p.salt == "cluster-rpc" and p.seed == 7


# ------------------------------------------------------------- shard guards


class TestShardGuards:
    def test_shard_requires_durability(self, graph):
        cfg = FlashWalkerConfig(**ENGINE)  # durability disabled
        with pytest.raises(SimulationError, match="durability"):
            ShardRuntime(0, graph, cfg, 9, spec_length=6, expected_walks=64)

    def test_shard_rejects_periodic_checkpoints(self, graph):
        cfg = shard_cfg(FaultConfig(checkpoint_interval=50e-6))
        with pytest.raises(SimulationError, match="checkpoint_interval"):
            ShardRuntime(0, graph, cfg, 9, spec_length=6, expected_walks=64)


# ------------------------------------------------------- engine epoch API


class TestEngineEpochApi:
    def _engine(self, graph):
        from repro.core import FlashWalker

        return FlashWalker(graph, shard_cfg(), seed=9)

    def test_checkpoint_now_requires_quiescence(self, graph):
        fw = self._engine(graph)
        fw.start_session(WalkSpec(length=6), expected_walks=8)
        fw.checkpoint_now()
        assert fw.latest_checkpoint is not None
        assert fw.latest_checkpoint.time == fw.sim.now

    def test_arm_power_loss_guards(self, graph):
        fw = self._engine(graph)
        with pytest.raises(SimulationError, match="past"):
            fw.arm_power_loss(fw.sim.now - 1e-9)
        from repro.core import FlashWalker

        bare = FlashWalker(graph, FlashWalkerConfig(**ENGINE), seed=9)
        with pytest.raises(SimulationError, match="durability"):
            bare.arm_power_loss(1.0)


# ------------------------------------------------------------ health board


class TestHealthBoard:
    def test_breaker_trips_on_mirrored_counters(self):
        hb = HealthBoard(ServiceConfig(breaker_cooldown=1e-3).validate(), 2)
        assert hb.poll(0.0) == [False, False]
        hb.update(0, {"chip_failures": 1})
        assert hb.poll(1e-6) == [True, False]
        assert hb.stats()["open_epochs"] == [1, 0]


# ---------------------------------------------------------------- cluster


class TestClusterService:
    @pytest.mark.parametrize("check", LEDGER_CHECKS)
    def test_auditor_catches_ledger_tampering(self, graph, check):
        svc = ClusterService(graph, shard_cfg(), cluster_cfg(), seed=7)
        sweep = svc._sweep_deadlines

        def tampering_sweep(t):
            if svc.epoch == 2:
                tamper_ledger(svc.ledger, check)
            sweep(t)

        svc._sweep_deadlines = tampering_sweep
        with pytest.raises(InvariantViolation) as exc_info:
            svc.run(requests())
        exc = exc_info.value
        assert exc.state["epoch"] == 3  # caught at the next barrier
        assert any(v.startswith(check) for v in exc.violations)

    def test_serves_every_query_and_conserves_walks(self, graph):
        svc, out = run_cluster(graph)
        assert [r.status for r in out.responses] == ["ok"] * 4
        s = out.report["service"]
        assert s["walks"]["created"] == s["walks"]["done"] == 64
        assert s["walks"]["zombie"] == 0
        c = out.report["cluster"]
        assert c["audit"]["violations"] == 0
        assert c["audit"]["audits"] >= c["epochs"]
        assert c["migrations"]["total"] >= 1  # hash placement migrates
        assert out.report["schema"] == "repro.obs.cluster-report"
        assert len(out.report["shards"]) == 3
        # Every leased segment came back: per-shard books balance.
        for sh in c["shards"]:
            assert sh["segments_injected"] >= sh["migrations_in"]

    def test_rerun_and_process_pool_are_byte_identical(self, graph):
        _, serial = run_cluster(graph)
        _, again = run_cluster(graph)
        _, pooled = run_cluster(graph, jobs=2)
        assert canonical(serial.report) == canonical(again.report)
        assert canonical(serial.report, drop=("jobs",)) == canonical(
            pooled.report, drop=("jobs",)
        )

    def test_kill_promotes_replica_with_measured_rto(self, graph):
        ccfg = cluster_cfg(kill_schedule=((40e-6, 1),))
        svc, out = run_cluster(graph, ccfg)
        c = out.report["cluster"]
        assert len(c["failovers"]) == 1
        fo = c["failovers"][0]
        assert fo["kind"] == "kill" and fo["shard"] == 1
        assert fo["rto_time"] > 0.0
        assert c["rto"]["count"] == 1 and c["rto"]["max"] > 0.0
        assert c["kills_unfired"] == []
        # Failover is invisible to the workload: every query still ok,
        # nothing lost or duplicated.
        assert [r.status for r in out.responses] == ["ok"] * 4
        assert c["audit"]["violations"] == 0

    def test_killed_run_matches_baseline_outside_cluster_section(self, graph):
        _, base = run_cluster(graph, cluster_cfg())
        _, killed = run_cluster(graph, cluster_cfg(kill_schedule=((40e-6, 1),)))
        assert canonical(killed.report, drop=("cluster",)) == canonical(
            base.report, drop=("cluster",)
        )
        assert killed.report["cluster"] != base.report["cluster"]

    def test_lossy_link_delays_but_conserves(self, graph):
        ccfg = cluster_cfg(link_loss_prob=0.4, link_corrupt_prob=0.2,
                           rpc_max_attempts=3)
        _, out = run_cluster(graph, ccfg)
        link = out.report["cluster"]["link"]
        assert link["losses"] + link["corruptions"] >= 1
        assert link["retransmits"] >= 1
        s = out.report["service"]
        assert s["walks"]["created"] == s["walks"]["done"]
        assert out.report["cluster"]["audit"]["violations"] == 0

    def test_overload_sheds_under_reject_policy(self, graph):
        ccfg = cluster_cfg(queue_capacity=1, admission_policy="reject",
                           max_inflight_walks_per_shard=8)
        reqs = requests(6, num_walks=8, gap=0.0)  # simultaneous burst
        _, out = run_cluster(graph, ccfg, reqs=reqs)
        s = out.report["service"]
        assert s["requests"]["shed"] >= 1
        assert s["requests"]["ok"] >= 1
        assert (
            s["requests"]["ok"] + s["requests"]["timed_out"]
            + s["requests"]["shed"] == 6
        )
        shed = [r for r in out.responses if r.status == "shed"]
        assert all(r.shed_reason for r in shed)
        # Shed queries never create walks; admitted walks all finish.
        assert s["walks"]["created"] == s["walks"]["done"]

    def test_request_validation(self, graph):
        svc = ClusterService(graph, shard_cfg(), cluster_cfg(), seed=7)
        with pytest.raises(ConfigError, match="no requests"):
            svc.run([])
        dup = requests(2)
        dup[1] = QueryRequest(query_id=0, arrival=1e-6, num_walks=4,
                              length=6, deadline=50e-3)
        with pytest.raises(ConfigError, match="duplicate"):
            svc.run(dup)
        with pytest.raises(ConfigError, match="max_walk_length"):
            svc.run([QueryRequest(query_id=0, arrival=0.0, num_walks=4,
                                  length=99, deadline=50e-3)])

    def test_shard_config_count_must_match(self, graph):
        with pytest.raises(ConfigError, match="shard configs"):
            ClusterService(graph, [shard_cfg()] * 2, cluster_cfg(), seed=7)

    def test_auditor_flags_tampered_accounting(self, graph):
        svc, _ = run_cluster(graph)
        svc.walks_done += 1  # forge a completion that never happened
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit()
        exc = exc_info.value
        assert exc.context == "cluster"
        assert any("done" in v for v in exc.violations)
        assert exc.state["walks_created"] == 64

    def test_auditor_flags_live_table_drift(self, graph):
        svc, _ = run_cluster(graph)
        w = svc.walks[0]
        svc.live_walks[w.wid] = w  # a done walk back among the live ones
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit()
        assert any("live walk table" in v for v in exc_info.value.violations)

    def test_range_placement_runs_clean(self, graph):
        ccfg = cluster_cfg(placement="range")
        _, out = run_cluster(graph, ccfg)
        assert [r.status for r in out.responses] == ["ok"] * 4
        assert out.report["cluster"]["audit"]["violations"] == 0
        assert out.report["cluster"]["placement"] == "range"

    def test_dftl_shards_survive_a_kill_deterministically(self, graph):
        base = shard_cfg()
        cfg = base.replace(
            ssd=dataclasses.replace(base.ssd, ftl=FTLConfig(enabled=True))
        )
        ccfg = cluster_cfg(n_shards=2, kill_schedule=((40e-6, 1),))

        def run():
            return ClusterService(graph, cfg, ccfg, seed=7).run(requests())

        out, again = run(), run()
        c = out.report["cluster"]
        assert c["audit"]["violations"] == 0
        assert c["rto"]["count"] == 1 and c["kills_unfired"] == []
        assert [r.status for r in out.responses] == ["ok"] * 4
        # The shards really ran the translation layer.
        assert all("ftl" in sh for sh in out.report["shards"])
        assert canonical(out.report) == canonical(again.report)


# ------------------------------------------------------ elastic placement


class TestElasticPlacement:
    def test_range_slot_near_int64_overflow_boundary(self):
        # The legacy formula (v * n_shards) // n_vertices overflowed in
        # int64 once v * n_shards crossed 2**63; searchsorted over
        # Python-int bounds must match exact integer arithmetic there.
        n, V = 3, (1 << 62) + 11
        pl = VertexPlacement("range", n, V)
        probes = [0, 1, V // 3, V // 2, (2 * V) // 3, V - 2, V - 1]
        for b in pl.bounds[1:-1]:
            probes.extend([b - 1, b])
        for v in probes:
            assert 0 <= v < V
            expected = (v * n) // V  # exact Python ints
            assert int(pl.slot_of(np.int64(v))) == expected, v

    def test_default_bounds_match_legacy_formula_everywhere(self):
        from repro.cluster import even_bounds

        for n, V in ((3, 512), (4, 511), (7, 1000), (5, 5)):
            pl = VertexPlacement("range", n, V)
            assert pl.bounds == even_bounds(n, V)
            verts = np.arange(V, dtype=np.int64)
            legacy = np.array([(int(v) * n) // V for v in verts])
            assert np.array_equal(pl.slot_of(verts), legacy)

    @pytest.mark.parametrize("mode", ["hash", "range"])
    def test_partition_property_across_resize_epochs(self, mode):
        V = 512
        verts = np.arange(V, dtype=np.int64)
        pl = VertexPlacement(mode, 2, V)
        grown = pl.grown([2, 3])
        shrunk = grown.shrunk(0)
        assert (pl.epoch, grown.epoch, shrunk.epoch) == (0, 1, 2)
        assert grown.shard_ids == (0, 1, 2, 3)
        assert shrunk.shard_ids == (1, 2, 3)
        for p in (pl, grown, shrunk):
            owners = p.shard_of(verts)
            # Every vertex owned by exactly one live shard.
            assert int(p.counts(verts).sum()) == V
            assert set(owners.tolist()) <= set(p.shard_ids)

    def test_rebalanced_keeps_shards_changes_bounds(self):
        pl = VertexPlacement("range", 4, 512)
        rb = pl.rebalanced((0, 64, 128, 256, 512))
        assert rb.epoch == 1 and rb.shard_ids == pl.shard_ids
        assert int(rb.counts(np.arange(512)).sum()) == 512
        with pytest.raises(ConfigError):
            VertexPlacement("hash", 4, 512).rebalanced((0, 64, 128, 256, 512))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bounds=(0, 100, 400)),            # wrong span end
            dict(bounds=(1, 100, 512)),            # wrong span start
            dict(bounds=(0, 300, 200, 512)),       # not increasing
            dict(shard_ids=(0, 0, 1)),             # duplicate ids
            dict(shard_ids=(0, -1, 2)),            # negative id
            dict(shard_ids=(0, 1)),                # wrong length
        ],
    )
    def test_bad_elastic_construction_rejected(self, kwargs):
        n = len(kwargs.get("bounds", (0,) * 4)) - 1
        with pytest.raises(ConfigError):
            VertexPlacement("range", n, 512, **kwargs)

    def test_bounds_meaningless_in_hash_mode(self):
        with pytest.raises(ConfigError, match="range mode"):
            VertexPlacement("hash", 2, 512, bounds=(0, 256, 512))

    def test_ring_successors_follow_slot_table(self):
        pl = VertexPlacement("hash", 3, 512, shard_ids=(4, 1, 7))
        assert list(pl.ring_successors(1)) == [7, 4]
        assert pl.slot_of_shard(7) == 2
        with pytest.raises(ConfigError):
            pl.slot_of_shard(0)

    def test_rebalanced_bounds_shift_toward_load(self):
        from repro.cluster import rebalanced_bounds

        bounds = (0, 256, 512)
        # All observed load on slot 0: its range should shrink.
        skew = rebalanced_bounds(bounds, [300, 20])
        assert skew[0] == 0 and skew[-1] == 512
        assert skew[1] < 256
        assert all(hi > lo for lo, hi in zip(skew, skew[1:]))
        # Balanced or zero load: unchanged.
        assert rebalanced_bounds(bounds, [50, 50]) == bounds
        assert rebalanced_bounds(bounds, [0, 0]) == bounds


# ------------------------------------------------------- elastic config


class TestElasticConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(resize_schedule=((1e-4, "split", 1),)),
            dict(resize_schedule=((-1e-4, "grow", 1),)),
            dict(resize_schedule=((1e-4, "grow", 0),)),
            dict(resize_schedule=((1e-4, "rebalance", 0),)),  # hash mode
            dict(rebalance_enabled=True),                      # hash mode
            dict(placement="range", rebalance_imbalance_ratio=0.5),
            dict(resize_transfer_budget_epochs=0),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs).validate()

    def test_kill_may_target_shard_minted_by_grow(self):
        # Shard 5 does not exist at t=0 but a grow can mint it.
        ClusterConfig(
            n_shards=4, kill_schedule=((1e-3, 5),),
            resize_schedule=((1e-4, "grow", 2),),
        ).validate()
        with pytest.raises(ConfigError):
            ClusterConfig(n_shards=4, kill_schedule=((1e-3, 5),)).validate()


# ------------------------------------------------------- elastic cluster


def resize_cfg(**kw):
    kw.setdefault("n_shards", 2)
    kw.setdefault("placement", "range")
    return cluster_cfg(**kw)


class TestClusterResize:
    def test_grow_live_commits_and_uses_new_shards(self, graph):
        ccfg = resize_cfg(resize_schedule=((5e-5, "grow", 2),))
        _, out = run_cluster(graph, ccfg)
        assert [r.status for r in out.responses] == ["ok"] * 4
        c = out.report["cluster"]
        assert out.report["schema_version"] == CLUSTER_SCHEMA_VERSION
        (rz,) = c["resizes"]
        assert rz["kind"] == "grow" and rz["committed"] is True
        assert rz["added"] == [2, 3] and rz["rto_time"] > 0.0
        assert c["membership"]["live_shards"] == [0, 1, 2, 3]
        assert c["handoff"]["walks"] >= 1
        # The new shards actually served work after the handoff.
        assert sum(s["epochs_stepped"] for s in c["shards"][2:]) >= 1
        assert c["audit"]["violations"] == 0

    def test_shrink_live_retires_departed_state(self, graph):
        ccfg = resize_cfg(n_shards=3, resize_schedule=((5e-5, "shrink", 1),))
        svc, out = run_cluster(graph, ccfg)
        assert [r.status for r in out.responses] == ["ok"] * 4
        c = out.report["cluster"]
        (rz,) = c["resizes"]
        assert rz["removed"] == [1] and rz["committed"] is True
        assert c["membership"]["live_shards"] == [0, 2]
        assert c["membership"]["retired_shards"] == [1]
        # Health/breaker state is retired, not left to reroute to.
        assert svc.health.breakers[1].retired is True
        svc.health.breakers[1].open_until = 1e9
        assert svc.health.poll(1.0)[1] is False
        # Per-pair link counters folded into the tombstone.
        assert all(1 not in k for k in svc.link.pair_walks)
        assert c["link"]["retired_pairs_folded"] >= 1
        # The departed shard's engine report still made it out.
        assert len(out.report["shards"]) == 3
        assert c["shards"][1]["retired"] is True
        assert c["audit"]["violations"] == 0

    def test_shrink_unknown_shard_fails_cleanly(self, graph):
        ccfg = resize_cfg(resize_schedule=((5e-5, "shrink", 9),))
        with pytest.raises(SimulationError, match="not in live"):
            run_cluster(graph, ccfg)

    def test_kill_mid_handoff_conserves_walks(self, graph):
        # Kill a freshly-minted shard while the grow handoff is live:
        # replica promotion + epoch-checkpoint replay inside the epoch.
        ccfg = resize_cfg(
            resize_schedule=((5e-5, "grow", 2), (2.5e-4, "shrink", 0)),
            kill_schedule=((6e-5, 2),),
        )
        _, out = run_cluster(graph, ccfg, reqs=requests(6))
        assert [r.status for r in out.responses] == ["ok"] * 6
        c = out.report["cluster"]
        assert len(c["failovers"]) == 1
        assert sum(r["kills_during"] for r in c["resizes"]) == 1
        assert all(r["committed"] for r in c["resizes"])
        assert c["membership"]["live_shards"] == [1, 2, 3]
        ho = c["handoff"]
        assert ho["walks"] >= 1 and ho["rto"]["count"] == 2
        assert ho["rpo_walks"] >= 0
        s = out.report["service"]
        assert s["walks"]["created"] == s["walks"]["done"]
        assert s["walks"]["zombie"] == 0
        assert c["audit"]["violations"] == 0

    def test_exhausted_transfer_aborts_and_rolls_back(self, graph):
        # A slow link keeps migrations toward the departing shard in
        # flight past the budget -> abort -> rollback to old placement.
        ccfg = cluster_cfg(
            n_shards=3, placement="hash", segment_hops=1,
            link_latency=1e-3, link_loss_prob=0.0, link_corrupt_prob=0.0,
            resize_schedule=((2e-4, "shrink", 1),),
            resize_transfer_budget_epochs=1,
        )
        _, out = run_cluster(graph, ccfg, reqs=requests(8))
        c = out.report["cluster"]
        (rz,) = c["resizes"]
        assert rz["aborted"] is True and rz["committed"] is False
        assert rz["rollback_epochs"] >= 1
        # Clean abort: the old placement survives untouched.
        assert c["membership"]["live_shards"] == [0, 1, 2]
        assert c["membership"]["placement"]["epoch"] == 0
        assert c["handoff"]["aborts"] == 1
        assert [r.status for r in out.responses] == ["ok"] * 8
        assert c["audit"]["violations"] == 0

    def test_breaker_open_target_defers_handoff(self, graph):
        ccfg = resize_cfg(n_shards=2, resize_schedule=((5e-5, "shrink", 1),))
        svc = ClusterService(graph, shard_cfg(), ccfg, seed=7)
        # Destination shard 0 starts with its breaker open well past
        # the first transfer barriers: handoffs must defer, not drop.
        svc.health.breakers[0].open_until = 2e-3
        out = svc.run(requests())
        c = out.report["cluster"]
        assert c["handoff"]["deferred_batches"] >= 1
        (rz,) = c["resizes"]
        assert rz["committed"] is True
        assert c["membership"]["live_shards"] == [0]
        s = out.report["service"]
        assert s["walks"]["created"] == s["walks"]["done"]
        assert c["audit"]["violations"] == 0

    def test_load_driven_rebalance_recuts_range(self, graph):
        # Every walk starts in shard 0's range: the trigger must fire
        # and shrink slot 0's span toward the observed load.
        reqs = [
            QueryRequest(query_id=i, arrival=i * 30e-6, num_walks=16,
                         length=6, deadline=50e-3, starts=tuple(range(16)))
            for i in range(8)
        ]
        ccfg = resize_cfg(
            link_loss_prob=0.0, link_corrupt_prob=0.0,
            rebalance_enabled=True, rebalance_check_epochs=2,
            rebalance_window_epochs=4, rebalance_imbalance_ratio=1.3,
            rebalance_min_walks=8, rebalance_cooldown_epochs=4,
        )
        _, out = run_cluster(graph, ccfg, reqs=reqs)
        c = out.report["cluster"]
        assert c["handoff"]["rebalances"] >= 1
        auto = [r for r in c["resizes"] if r["kind"] == "rebalance"]
        assert auto and all(r["auto"] for r in auto)
        assert c["membership"]["placement"]["bounds"][1] < 256
        assert c["audit"]["violations"] == 0

    def test_serial_pool_identity_with_resizes_and_kill(self, graph):
        ccfg = resize_cfg(
            resize_schedule=((5e-5, "grow", 2), (2.5e-4, "shrink", 0)),
            kill_schedule=((6e-5, 2),),
        )
        _, serial = run_cluster(graph, ccfg, reqs=requests(6))
        _, pooled = run_cluster(graph, ccfg, reqs=requests(6), jobs=3)
        assert canonical(serial.report, drop=("jobs",)) == canonical(
            pooled.report, drop=("jobs",)
        )

    def test_no_resize_report_keeps_pre_elastic_schema(self, graph):
        # Without resizes the elastic keys are still present, at the one
        # current schema version, and record that nothing moved.
        _, out = run_cluster(graph)
        assert out.report["schema_version"] == CLUSTER_SCHEMA_VERSION
        c = out.report["cluster"]
        assert c["resizes"] == [] and c["resizes_unfired"] == []
        assert c["membership"]["retired_shards"] == []
        assert c["handoff"]["walks"] == 0
        assert c["link"]["pairs"] == {}
        for s in c["shards"]:
            assert (s["handoffs_out"], s["handoffs_in"]) == (0, 0)
            assert s["retired"] is False
        assert set(c["health"]) == {
            "breaker_trips", "open_epochs", "reroutes", "breaker_promotions",
            "suspect_epochs", "suspect_transitions",
        }

    def test_placement_agrees_with_auditor_ownership(self, graph):
        svc, _ = run_cluster(graph, resize_cfg(
            resize_schedule=((5e-5, "grow", 1),)
        ))
        pl = svc.placement
        svc.auditor.check_placement(pl)
        verts = np.arange(graph.num_vertices, dtype=np.int64)
        assert int(pl.counts(verts).sum()) == graph.num_vertices
        bad = VertexPlacement("range", 2, 64)
        bad.bounds = (0, 32, 63)  # torn map: vertex 63 unowned
        bad._cuts = np.asarray(bad.bounds, dtype=np.int64)
        bad.n_vertices = 64
        with pytest.raises(InvariantViolation, match="placement"):
            svc.auditor.check_placement(bad)
