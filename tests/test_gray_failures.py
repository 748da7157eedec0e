"""Gray-failure resilience: seeded slow-fault injection, straggler
detection, hedged walk leases, end-to-end deadline propagation, retry
budgets, and brownout admission.

The layer is strictly opt-in.  Its reports follow one rule: a key is
present iff the object that produces it was built, so turning a gray
knob on changes values, never the key set (``TestReportShape``).  The
cluster chaos/resize goldens pin one current report per scenario.
"""

import dataclasses
import hashlib
import json
from collections import defaultdict

import pytest

from repro.cluster import ClusterService, HealthBoard
from repro.cluster.campaign import (
    DEFAULT_KILLS,
    DEFAULT_RESIZES,
    GRAY_DEFAULTS,
    run_scenario,
    sustained_slow_faults,
)
from repro.cluster.cluster import CLUSTER_SCHEMA_VERSION
from repro.common import (
    ConfigError,
    DurabilityConfig,
    FaultConfig,
    FlashWalkerConfig,
    InvariantViolation,
    RngRegistry,
)
from repro.common.config import SlowFaultConfig
from repro.core import FlashWalker
from repro.faults.slow import SlowFaultModel
from repro.graph import rmat
from repro.obs.metrics import MetricsConfig
from repro.obs.report import config_fingerprint, diff_reports
from repro.service import QueryRequest, ServiceConfig, WalkQueryService
from repro.service.request import open_loop_requests
from repro.walks import WalkSpec

from .test_cluster import cluster_cfg, requests, run_cluster, shard_cfg

ENGINE = dict(
    partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0
)


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, RngRegistry(55).fresh("g"))


def canonical(report, *, drop=()):
    return json.dumps(
        {k: v for k, v in report.items() if k not in drop}, sort_keys=True
    )


# ------------------------------------------------------ slow-fault model


class TestSlowFaultConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(windows=(("bad-kind", 0, 0.0, 1.0, 2.0),)),
            dict(windows=(("chip-read", 0, 1.0, 0.5, 2.0),)),
            dict(windows=(("chip-read", 0, 0.0, 1.0, 0.5),)),
            dict(n_random=-1),
            dict(n_random=1, factor_min=8.0, factor_max=2.0),
        ],
    )
    def test_validation_rejects(self, kw):
        with pytest.raises(ConfigError):
            FlashWalkerConfig(
                faults=FaultConfig(slow=SlowFaultConfig(enabled=True, **kw))
            ).validate()

    def test_disabled_layer_keeps_fingerprint(self):
        explicit_off = FlashWalkerConfig(
            faults=FaultConfig(slow=SlowFaultConfig())
        )
        assert config_fingerprint(explicit_off) == config_fingerprint(
            FlashWalkerConfig()
        )

    def test_enabled_layer_moves_fingerprint(self):
        on = FlashWalkerConfig(
            faults=FaultConfig(slow=sustained_slow_faults(factor=2.0))
        )
        assert config_fingerprint(on) != config_fingerprint(
            FlashWalkerConfig()
        )


class TestSlowFaultModel:
    def mk(self, windows, **kw):
        cfg = SlowFaultConfig(enabled=True, windows=tuple(windows), **kw)
        return SlowFaultModel(cfg.validate(), 7, n_chips=8, n_channels=4)

    def test_window_factor_lookup(self):
        m = self.mk([
            ("chip-read", 2, 10.0, 20.0, 3.0),
            ("channel-bus", 1, 5.0, 15.0, 2.0),
        ])
        # Inside the window: base * (factor - 1) extra.
        assert m.read_extra(2, 12.0, 10.0) == pytest.approx(20.0)
        # Outside (before, after, other unit, other kind): free.
        assert m.read_extra(2, 9.99, 10.0) == 0.0
        assert m.read_extra(2, 20.0, 10.0) == 0.0  # end-exclusive
        assert m.read_extra(3, 12.0, 10.0) == 0.0
        assert m.program_extra(2, 12.0, 10.0) == 0.0
        assert m.bus_extra(1, 10.0, 4.0) == pytest.approx(4.0)
        assert m.slow_read_ops == 1 and m.slow_bus_ops == 1
        assert m.slow_time_added == pytest.approx(24.0)

    def test_overlapping_windows_compound(self):
        m = self.mk([
            ("chip-read", 0, 0.0, 10.0, 2.0),
            ("chip-read", 0, 5.0, 15.0, 3.0),
        ])
        assert m.read_extra(0, 2.0, 1.0) == pytest.approx(1.0)   # x2
        assert m.read_extra(0, 7.0, 1.0) == pytest.approx(5.0)   # x6
        assert m.read_extra(0, 12.0, 1.0) == pytest.approx(2.0)  # x3

    def test_seeded_generation_is_deterministic(self):
        cfg = SlowFaultConfig(enabled=True, n_random=16).validate()
        mk = lambda seed: SlowFaultModel(cfg, seed, n_chips=32, n_channels=8)
        assert mk(7).windows == mk(7).windows
        assert mk(7).windows != mk(8).windows
        a = mk(7)
        before = list(a.windows)
        # Lookups draw no RNG and never mutate the window set.
        for t in (0.0, 1e-4, 2e-4):
            a.read_extra(0, t, 1e-6)
            a.bus_extra(0, t, 1e-6)
        assert list(a.windows) == before

    def test_snapshot_restore_roundtrip(self):
        m = self.mk([("chip-read", 0, 0.0, 10.0, 2.0)])
        m.read_extra(0, 1.0, 3.0)
        snap = m.state()
        m.read_extra(0, 2.0, 5.0)
        m.restore(snap)
        assert m.slow_read_ops == 1
        assert m.slow_time_added == pytest.approx(3.0)


class TestEngineSlowFaults:
    def run_engine(self, graph, slow=None):
        faults = FaultConfig() if slow is None else FaultConfig(slow=slow)
        cfg = FlashWalkerConfig(**ENGINE, faults=faults)
        fw = FlashWalker(graph, cfg, seed=11)
        res = fw.run(num_walks=64, spec=WalkSpec(length=6))
        return fw, res

    def test_disabled_slow_model_is_byte_identical(self, graph):
        _, base = self.run_engine(graph)
        _, off = self.run_engine(graph, slow=SlowFaultConfig())
        assert diff_reports(base.to_report(), off.to_report()) == {}

    def test_sustained_slow_faults_stretch_the_run(self, graph):
        _, base = self.run_engine(graph)
        _, slow = self.run_engine(graph, slow=sustained_slow_faults(factor=4.0))
        assert slow.counters["slow_read_ops"] > 0
        assert slow.counters["slow_time_added"] > 0.0
        assert slow.elapsed > base.elapsed
        # Gray means *correct but slow*: same walks, same hop count, no
        # fault counter moves.
        assert slow.hops == base.hops
        assert slow.counters.get("fault_chip_failures", 0.0) == 0.0

    def test_same_seed_slow_runs_identical(self, graph):
        _, a = self.run_engine(graph, slow=sustained_slow_faults(factor=4.0))
        _, b = self.run_engine(graph, slow=sustained_slow_faults(factor=4.0))
        assert diff_reports(a.to_report(), b.to_report()) == {}


# --------------------------------------------------- straggler detection


def mk_board(n=4, **kw):
    kw.setdefault("straggler_window_epochs", 4)
    kw.setdefault("straggler_min_epochs", 2)
    kw.setdefault("straggler_median_multiple", 2.0)
    return HealthBoard(ServiceConfig(), n, **kw)


class TestStragglerDetection:
    def feed(self, board, per_shard, epochs):
        for e in range(epochs):
            for sid, lat in enumerate(per_shard):
                board.note_epoch_latency(sid, lat * 8, 8)
            board.refresh_suspects(epoch=e, now=float(e))

    def test_slow_shard_becomes_suspect(self):
        board = mk_board()
        self.feed(board, [1.0, 5.0, 1.0, 1.0], epochs=4)
        assert board.suspect == [False, True, False, False]
        assert board.suspect_epochs[1] >= 1
        assert board.straggler_pressure() == pytest.approx(0.25)
        assert any(
            t["shard"] == 1 and t["suspect"] for t in board.suspect_transitions
        )

    def test_uniform_load_never_suspects(self):
        board = mk_board()
        self.feed(board, [1.0, 1.0, 1.0, 1.0], epochs=8)
        assert board.suspect == [False] * 4

    def test_suspicion_clears_when_shard_recovers(self):
        board = mk_board()
        self.feed(board, [1.0, 5.0, 1.0, 1.0], epochs=4)
        assert board.suspect[1]
        self.feed(board, [1.0, 1.0, 1.0, 1.0], epochs=6)
        assert not board.suspect[1]
        clear = [t for t in board.suspect_transitions
                 if t["shard"] == 1 and not t["suspect"]]
        assert len(clear) == 1

    def test_min_epochs_gates_judgement(self):
        board = mk_board(straggler_min_epochs=3)
        self.feed(board, [1.0, 5.0, 1.0, 1.0], epochs=2)
        assert board.suspect == [False] * 4
        self.feed(board, [1.0, 5.0, 1.0, 1.0], epochs=2)
        assert board.suspect[1]

    def test_retired_shard_never_suspect(self):
        board = mk_board()
        self.feed(board, [1.0, 5.0, 1.0, 1.0], epochs=4)
        board.retire(1)
        board.refresh_suspects(epoch=9, now=9.0)
        assert board.suspect == [False] * 4
        assert board.straggler_pressure() == 0.0

    def test_idle_epochs_are_not_sampled(self):
        board = mk_board()
        board.note_epoch_latency(0, 5.0, 0)
        assert len(board.latencies[0]) == 0

    def test_detection_off_keeps_stats_keys_legacy(self):
        # Detection off keeps the same stats keys, with zero counts.
        board = HealthBoard(ServiceConfig(), 2)
        board.note_epoch_latency(0, 5.0, 8)
        stats = board.stats()
        assert set(stats) == set(mk_board(2).stats())
        assert stats["suspect_epochs"] == [0, 0]
        assert stats["suspect_transitions"] == 0


# --------------------------------------------- hedged leases (cluster)


def gray_cfg(**kw):
    gray = dict(GRAY_DEFAULTS)
    gray.update(kw)
    return cluster_cfg(
        n_shards=4,
        link_loss_prob=0.0,
        link_corrupt_prob=0.0,
        **gray,
    )


def slow_shard_cfgs(n_shards=4, victim=1, factor=6.0):
    base = shard_cfg().replace(**{})
    slow = FlashWalkerConfig(
        **ENGINE,
        durability=DurabilityConfig(enabled=True, journal_interval=25e-6),
        faults=FaultConfig(slow=sustained_slow_faults(factor=factor)),
    )
    return [slow if i == victim else base for i in range(n_shards)]


def run_hedged(graph, *, seed=7, jobs=1, ccfg=None, reqs=None, victim=1):
    svc = ClusterService(
        graph, slow_shard_cfgs(victim=victim), ccfg or gray_cfg(),
        seed=seed, jobs=jobs,
    )
    out = svc.run(reqs if reqs is not None else requests(8, num_walks=32))
    return svc, out


class TestHedgedCluster:
    def test_hedges_fire_against_the_slow_shard_only(self, graph):
        svc, out = run_hedged(graph)
        gray = out.report["cluster"]["gray"]
        hedging = gray["hedging"]
        suspects = gray["stragglers"]["suspect_epochs"]
        assert hedging["issued"] > 0
        # The victim is the only shard ever suspected.
        assert suspects[1] > 0
        assert all(e == 0 for i, e in enumerate(suspects) if i != 1)
        # Exactly-one-commit: every issued hedge is accounted as a win
        # on one side and wasted work on the other.
        assert (
            hedging["wins_primary"] + hedging["wins_hedge"]
            == hedging["issued"]
        )
        assert hedging["wasted_segments"] == hedging["issued"]
        assert hedging["wasted_work_rate"] > 0.0
        assert out.report["cluster"]["audit"]["violations"] == 0
        assert out.report["schema_version"] == CLUSTER_SCHEMA_VERSION

    def test_same_seed_hedged_runs_byte_identical(self, graph):
        _, a = run_hedged(graph)
        _, b = run_hedged(graph)
        assert canonical(a.report) == canonical(b.report)

    def test_serial_and_pooled_hedged_runs_identical(self, graph):
        _, serial = run_hedged(graph, jobs=1)
        _, pooled = run_hedged(graph, jobs=2)
        assert canonical(serial.report, drop=("jobs",)) == canonical(
            pooled.report, drop=("jobs",)
        )

    def test_queries_answered_after_their_last_commit(self, graph, monkeypatch):
        # Hedged walks commit at their winning completion times, which
        # are not monotone in commit order: a query is finished at the
        # latest of its walks' commits, not at its last-processed one.
        credits = defaultdict(list)
        orig = ClusterService._credit

        def spy(self, w, t, *, sacrificed=False):
            credits[w.query_id].append(t)
            return orig(self, w, t, sacrificed=sacrificed)

        monkeypatch.setattr(ClusterService, "_credit", spy)
        svc, out = run_hedged(graph)
        assert svc.hedges_issued > 0
        ok = [r for r in out.responses if r.status == "ok"]
        assert ok
        for r in ok:
            assert len(credits[r.query_id]) == r.walks_requested
            assert r.finish_time >= max(credits[r.query_id])


    def test_all_gray_knobs_off_keeps_report_shape(self, graph):
        # With every gray knob off the gray section is still present, at
        # the one current schema version, and reports no gray activity.
        svc = ClusterService(
            graph, slow_shard_cfgs(), cluster_cfg(n_shards=4), seed=7
        )
        out = svc.run(requests(8, num_walks=32))
        gray = out.report["cluster"]["gray"]
        assert set(gray) == {
            "walks_sacrificed", "retry_budget_exhausted", "stragglers",
            "hedging", "admission_ramp",
        }
        assert gray["hedging"]["issued"] == 0
        assert gray["stragglers"]["transitions"] == []
        assert out.report["schema_version"] == CLUSTER_SCHEMA_VERSION
        assert out.report["cluster"]["audit"]["violations"] == 0

class TestAuditorHedgeMutations:
    def test_forged_hedge_win_is_flagged(self, graph):
        svc, _ = run_hedged(graph)
        svc.hedge_wins_primary += 1  # a win that never happened
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit()
        assert any("hedge" in v for v in exc_info.value.violations)

    def test_duplicate_hedge_commit_is_flagged(self, graph):
        # A duplicate commit would count one segment twice: committed
        # grows while collected stays put.
        svc, _ = run_hedged(graph)
        svc.segments_committed += 1
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit()
        assert any(
            "segment" in v or "hedge" in v
            for v in exc_info.value.violations
        )

    def test_suppressed_waste_accounting_is_flagged(self, graph):
        svc, _ = run_hedged(graph)
        if svc.hedge_wasted_segments == 0:
            pytest.skip("scenario issued no hedges")
        svc.hedge_wasted_segments -= 1
        with pytest.raises(InvariantViolation):
            svc.auditor.audit()

    def test_unhedged_duplicate_commit_is_flagged(self, graph):
        # The segment ledger is audited on every run: an unhedged run
        # is the zero-duplicate case, so collected == committed.
        svc = ClusterService(
            graph, slow_shard_cfgs(), cluster_cfg(n_shards=4), seed=7
        )
        svc.run(requests(8, num_walks=32))
        svc.segments_committed += 1
        with pytest.raises(InvariantViolation) as exc_info:
            svc.auditor.audit()
        assert any("segment ledger" in v for v in exc_info.value.violations)

    def test_unresolved_hedge_at_barrier_is_flagged(self, graph):
        svc, _ = run_hedged(graph)
        wid = next(iter(svc.walks))
        svc.walks[wid].hedge_shard = 0  # hedge that never resolved
        with pytest.raises(InvariantViolation):
            svc.auditor.audit()


# ------------------------------------- deadline / retry budget (cluster)


class TestClusterRetryBudget:
    def test_tiny_budget_exhausts_and_is_reported(self, graph):
        ccfg = gray_cfg(query_retry_budget=1)
        svc, out = run_hedged(graph, ccfg=ccfg)
        gray = out.report["cluster"]["gray"]
        assert gray["retry_budget_exhausted"] > 0
        # Exhaustion degrades to bare (unhedged) leases, never drops
        # work: conservation still holds and the auditor stays quiet.
        s = out.report["service"]
        assert s["walks"]["created"] == s["walks"]["done"]
        assert out.report["cluster"]["audit"]["violations"] == 0

    def test_deadline_propagation_sacrifices_dead_walks(self, graph):
        ccfg = gray_cfg()
        reqs = [
            QueryRequest(query_id=i, arrival=i * 10e-6, num_walks=32,
                         length=6, deadline=150e-6)
            for i in range(8)
        ]
        svc, out = run_hedged(graph, ccfg=ccfg, reqs=reqs)
        s = out.report["service"]
        gray = out.report["cluster"]["gray"]
        if s["requests"]["timed_out"] == 0:
            pytest.skip("no query missed its deadline")
        # Dead queries' walks are sacrificed, not run to completion as
        # zombies.
        assert gray["walks_sacrificed"] > 0
        assert s["walks"]["zombie"] == 0
        assert out.report["cluster"]["audit"]["violations"] == 0


# --------------------------------------- service budgets and brownout


def chaos_service(graph, seed=9, telemetry=None, **svc_kw):
    probe = FlashWalker(
        graph, FlashWalkerConfig().replace(**ENGINE), seed=seed
    )
    victim = int(probe.block_chip[0])
    faults = FaultConfig(
        enabled=True,
        page_error_rate=0.05,
        crc_error_rate=0.02,
        chip_failures=((150e-6, victim),),
    )
    svc_kw.setdefault("breaker_cooldown", 100e-6)
    cfg = FlashWalkerConfig().replace(**ENGINE, faults=faults)
    fw = FlashWalker(graph, cfg, seed=seed, telemetry=telemetry)
    return WalkQueryService(fw, ServiceConfig(**svc_kw))


def chaos_requests(deadline=50e-3):
    return open_loop_requests(
        16, 4e4, RngRegistry(7).fresh("arr"), walks_per_query=32,
        deadline=deadline,
    )


class TestServiceRetryBudget:
    def test_exhausted_budget_sheds_with_reason(self, graph):
        out = chaos_service(
            graph, breaker_policy="defer", query_retry_budget=1
        ).run(chaos_requests())
        s = out.result.service
        assert s["requests"]["retry_budget_exhausted"] > 0
        shed = [r for r in out.responses
                if r.shed_reason == "retry-budget-exhausted"]
        assert len(shed) == s["requests"]["retry_budget_exhausted"]
        assert s["audit"]["violations"] == 0

    def test_zero_budget_is_byte_identical_legacy(self, graph):
        a = chaos_service(graph, breaker_policy="defer").run(chaos_requests())
        b = chaos_service(graph, breaker_policy="defer").run(chaos_requests())
        assert a.result.service == b.result.service
        assert a.result.service["requests"]["retry_budget_exhausted"] == 0
        assert "brownout" not in a.result.service

    def test_past_deadline_retries_are_never_charged(self, graph):
        # With the breaker cooldown far past every deadline, reopen
        # retries cannot help and must not burn budget: no query may
        # be shed for exhaustion, they just time out.
        out = chaos_service(
            graph, breaker_policy="defer", breaker_cooldown=10.0,
            query_retry_budget=1,
        ).run(chaos_requests())
        s = out.result.service
        assert s["requests"]["retry_budget_exhausted"] == 0
        assert not any(
            r.shed_reason == "retry-budget-exhausted" for r in out.responses
        )


class TestServiceBrownout:
    def run_service(self, graph, **svc_kw):
        cfg = FlashWalkerConfig().replace(**ENGINE)
        fw = FlashWalker(graph, cfg, seed=9)
        svc = WalkQueryService(fw, ServiceConfig(**svc_kw))
        reqs = [
            QueryRequest(query_id=i, arrival=i * 2e-6, num_walks=64,
                         length=6, deadline=40e-6)
            for i in range(24)
        ]
        return svc.run(reqs)

    def test_miss_pressure_activates_brownout(self, graph):
        out = self.run_service(
            graph, brownout_enabled=True, brownout_window=4,
            brownout_enter_pressure=0.5,
        )
        b = out.result.service["brownout"]
        assert b["entries"] >= 1
        assert b["epochs_active"] >= 1
        assert out.result.service["audit"]["violations"] == 0

    def test_brownout_disabled_has_no_report_key(self, graph):
        out = self.run_service(graph)
        assert "brownout" not in out.result.service

    @pytest.mark.parametrize(
        "kw",
        [
            dict(brownout_enter_pressure=0.0),
            dict(brownout_enter_pressure=1.5),
            dict(brownout_exit_pressure=0.5, brownout_enter_pressure=0.25),
            dict(brownout_capacity_factor=0.0),
            dict(brownout_window=0),
        ],
    )
    def test_brownout_validation(self, kw):
        with pytest.raises(ConfigError):
            ServiceConfig(brownout_enabled=True, **kw).validate()


# ------------------------------------ brownout and ramp (cluster side)


class TestClusterBrownout:
    def test_straggler_pressure_drives_brownout(self, graph):
        # One suspect shard out of four = pressure 0.25, above the
        # 0.2 enter threshold.
        ccfg = gray_cfg(brownout_enabled=True, brownout_enter_pressure=0.2)
        svc, out = run_hedged(graph, ccfg=ccfg)
        b = out.report["cluster"]["gray"]["brownout"]
        assert b["entries"] >= 1
        assert b["epochs_active"] >= 1
        assert out.report["cluster"]["audit"]["violations"] == 0

    def test_brownout_off_has_no_report_key(self, graph):
        svc, out = run_hedged(graph)
        assert "brownout" not in out.report["cluster"]["gray"]


class TestResizeAdmissionRamp:
    def run_resize(self, graph, *, ramp):
        ccfg = cluster_cfg(
            n_shards=2,
            link_loss_prob=0.0,
            link_corrupt_prob=0.0,
            resize_schedule=((40e-6, "grow", 2),),
            resize_admission_ramp=ramp,
        )
        svc = ClusterService(
            graph, shard_cfg(), ccfg, seed=7
        )
        return svc.run(requests(8, num_walks=32))

    def test_capacity_ramps_during_transfer(self, graph):
        out = self.run_resize(graph, ramp=True)
        gray = out.report["cluster"]["gray"]
        assert gray["admission_ramp"]["epochs"] >= 1
        s = out.report["service"]
        assert s["walks"]["created"] == s["walks"]["done"]
        assert out.report["cluster"]["audit"]["violations"] == 0
        assert out.report["schema_version"] == CLUSTER_SCHEMA_VERSION


    def test_ramp_off_keeps_elastic_schema(self, graph):
        # A resize without the ramp reports the same key set as one with
        # it; the ramp simply records no epochs.
        off = self.run_resize(graph, ramp=False)
        on = self.run_resize(graph, ramp=True)
        assert off.report["cluster"]["resizes"]
        assert off.report["cluster"]["gray"]["admission_ramp"]["epochs"] == 0
        assert set(off.report["cluster"]["gray"]) == set(
            on.report["cluster"]["gray"]
        )
        assert off.report["schema_version"] == CLUSTER_SCHEMA_VERSION

# ------------------------------------------------------- config gating


class TestGrayConfigGating:
    def test_hedging_requires_straggler_detection(self):
        with pytest.raises(ConfigError, match="straggler_detection"):
            cluster_cfg(hedging_enabled=True).validate()

    def test_brownout_requires_straggler_detection(self):
        with pytest.raises(ConfigError, match="straggler_detection"):
            cluster_cfg(brownout_enabled=True).validate()


# --------------------------------------------------------- report shape


def key_paths(obj, prefix=""):
    """Dotted paths of every dict key under ``obj``.  Lists are leaves:
    their records come and go with the run's events."""
    paths = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else k
            paths.add(path)
            paths |= key_paths(v, path)
    return paths


def cluster_shape(report):
    """Key paths of the cluster section, with each shard row's key set.

    ``cluster.link.pairs`` is keyed by shard pair, so only its presence
    counts; ``cluster.telemetry`` and ``cluster.gray.brownout`` exist
    only when their producers were built."""
    cluster = report["cluster"]
    paths = {
        p for p in key_paths(cluster, "cluster")
        if not p.startswith(("cluster.link.pairs.", "cluster.telemetry",
                             "cluster.gray.brownout"))
    }
    rows = {frozenset(row) for row in cluster["shards"]}
    return paths, rows, set(report["service"]["requests"])


class TestReportShape:
    def test_cluster_report_has_one_key_set(self, graph):
        _, plain = run_cluster(graph)
        busy = cluster_cfg(
            resize_schedule=((50e-6, "grow", 1),),
            link_slow_windows=((0.0, 1e-3, 3.0),),
            **GRAY_DEFAULTS,
        )
        _, busy_out = run_cluster(graph, busy)
        busy_c = busy_out.report["cluster"]
        assert busy_c["resizes"] and busy_c["link"]["slow_transmits"] > 0
        paths, rows, reqs = cluster_shape(plain.report)
        assert len(rows) == 1
        assert cluster_shape(busy_out.report) == (paths, rows, reqs)

    def test_service_requests_have_one_key_set(self, graph):
        plain = chaos_service(graph, breaker_policy="defer")
        budget = chaos_service(
            graph, breaker_policy="defer", query_retry_budget=1
        )
        a = plain.run(chaos_requests()).result.service["requests"]
        b = budget.run(chaos_requests()).result.service["requests"]
        assert b["retry_budget_exhausted"] > 0
        assert set(a) == set(b)


# ------------------------------------------------ service report goldens


def golden_digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestServiceReportGoldens:
    """Two chaos service scenarios, run with engine telemetry on, replay
    their whole run report and every response exactly: the query
    accounting (arrivals, status counts, sheds per cause, retry-budget
    exhaustion, zombies, brownout, the ``service_*`` series) is pinned
    end to end.  On a deliberate report change, paste the digest the
    failure prints."""

    #: Retry budget 1 under a deferring breaker, brownout on a 4-response
    #: window: ok, timed-out and budget-exhausted sheds, and a brownout
    #: that enters and exits.
    BUDGET_BROWNOUT_SHA = (
        "720ce5429c932e1f72063956e1213cfb79ba55c5e91127738a65b345fc750f24"
    )
    #: A two-deep shed-oldest queue under a shedding breaker: evictions,
    #: breaker-open sheds, timeouts and an ok answer.
    SHED_OLDEST_SHA = (
        "c2b1119d75bcc24ad438df2a3e7a5194b8761f5907e5c2acaae78055d4de1d3e"
    )

    def check(self, out, name):
        digest = golden_digest({
            "report": out.result.to_report(),
            "responses": [dataclasses.asdict(r) for r in out.responses],
        })
        assert digest == getattr(self, name), (
            f"{name} digest is {digest}; if the report change is "
            f"deliberate, set {name} to it"
        )

    def test_budget_brownout_scenario_matches_golden(self, graph):
        out = chaos_service(
            graph, telemetry=MetricsConfig(), breaker_policy="defer",
            query_retry_budget=1, brownout_enabled=True, brownout_window=4,
            queue_capacity=4,
        ).run(chaos_requests(deadline=400e-6))
        req = out.result.service["requests"]
        assert (req["ok"], req["timed_out"], req["shed"]) == (5, 6, 5)
        assert out.result.service["brownout"]["transitions"] == 2
        self.check(out, "BUDGET_BROWNOUT_SHA")

    def test_shed_oldest_scenario_matches_golden(self, graph):
        out = chaos_service(
            graph, telemetry=MetricsConfig(), admission_policy="shed-oldest",
            queue_capacity=2, max_inflight_walks=32,
        ).run(chaos_requests(deadline=400e-6))
        assert out.result.service["queue"]["shed_oldest"] > 0
        assert {r.shed_reason for r in out.responses} >= {
            "shed-oldest", "breaker-open"
        }
        self.check(out, "SHED_OLDEST_SHA")


# ------------------------------------------------ cluster report goldens

#: How to regenerate the goldens below after a deliberate report change.
REGEN = "PYTHONPATH=src python -m pytest -m soak tests/test_gray_failures.py -k Golden"


@pytest.mark.soak
class TestGoldenGuards:
    """The canonical chaos and resize scenarios replay their current
    reports exactly.  One golden per scenario; on a deliberate report
    change, paste the digest the failure prints."""

    FAILOVER_SHA = (
        "c18a3f1e4254dc72937f54b8f1025ffca48ac47f33ec7cda8faacb881730ff45"
    )
    FAILOVER_TELEMETRY_SHA = (
        "5244491da69828a9fc4338f4b3849df2c151802ebe2932e27ed8f5b7efdc4145"
    )
    RESIZE_SHA = (
        "be48fe21a18c607192d2212f485764bf44d9123a20ee7470709b6bd63973b155"
    )

    def check(self, report, name):
        digest = golden_digest(report)
        assert digest == getattr(self, name), (
            f"{name} report digest is {digest}; if the report change is "
            f"deliberate, set {name} to it and rerun: {REGEN}"
        )

    def test_failover_scenario_matches_golden(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext.quick(seed=3)
        out = run_scenario(
            ctx, "TT", n_shards=4, n_requests=12, kills=DEFAULT_KILLS
        )
        self.check(out.report, "FAILOVER_SHA")

    def test_failover_telemetry_scenario_matches_golden(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext.quick(seed=3)
        out = run_scenario(
            ctx, "TT", n_shards=4, n_requests=12, kills=DEFAULT_KILLS,
            telemetry=True,
        )
        assert "cluster_responses" in json.dumps(
            out.report["cluster"]["telemetry"]
        )
        self.check(out.report, "FAILOVER_TELEMETRY_SHA")

    def test_resize_scenario_matches_golden(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext.quick(seed=3)
        out = run_scenario(
            ctx, "TT", n_shards=2, n_requests=12, kills=((60e-6, 2),),
            resizes=DEFAULT_RESIZES,
        )
        self.check(out.report, "RESIZE_SHA")


# ----------------------------------------------------- p99 recovery gate


@pytest.mark.soak
class TestP99RecoveryGate:
    """Hedging + deadline propagation must claw back at least half of
    the p99 damage a sustained slow fault causes (the acceptance gate:
    recovered >= 2x what hedging-off leaves on the table)."""

    def test_hedging_recovers_p99(self):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext.quick(seed=3)
        common = dict(
            n_shards=4, n_requests=24, kills=(), loss=0.0, corrupt=0.0
        )
        slow = sustained_slow_faults(factor=6.0)
        gray = dict(GRAY_DEFAULTS)

        def p99(out):
            return out.report["service"]["latency"]["p99"]

        clean_off = run_scenario(ctx, "TT", **common)
        slow_off = run_scenario(
            ctx, "TT", **common, slow_shards=(1,), slow=slow
        )
        clean_on = run_scenario(ctx, "TT", **common, gray=gray)
        slow_on = run_scenario(
            ctx, "TT", **common, slow_shards=(1,), slow=slow, gray=gray
        )

        # No false positives on healthy hardware: the clean hedged run
        # never suspects anybody and issues zero hedges.
        g = clean_on.report["cluster"]["gray"]
        assert g["hedging"]["issued"] == 0
        assert all(e == 0 for e in g["stragglers"]["suspect_epochs"])

        # The slow hedged run hedges, stays clean, and reports waste.
        g = slow_on.report["cluster"]["gray"]
        assert g["hedging"]["issued"] > 0
        assert g["hedging"]["wasted_work_rate"] > 0.0
        for out in (clean_off, slow_off, clean_on, slow_on):
            assert out.report["cluster"]["audit"]["violations"] == 0

        d_off = p99(slow_off) - p99(clean_off)
        d_on = p99(slow_on) - p99(clean_on)
        assert d_off > 0
        assert d_off >= 2.0 * d_on, (
            f"hedging recovered too little: degradation off={d_off:.6f} "
            f"on={d_on:.6f} ratio={d_off / max(d_on, 1e-12):.2f}"
        )
