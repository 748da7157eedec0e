"""Durability layer: power-loss injection, journaled recovery, and
silent-corruption detection with parity reconstruction."""

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common import (
    ConfigError,
    DurabilityConfig,
    FaultConfig,
    FlashWalkerConfig,
    FTLConfig,
    InvariantViolation,
    PowerLossError,
    RngRegistry,
    SimulationError,
)
from repro.common.config import SlowFaultConfig, SSDConfig
from repro.core import FlashWalker
from repro.durability.cli import main as durability_main
from repro.durability.harness import (
    gc_pressure_ssd,
    run_crash_campaign,
    standard_campaigns,
    strip_durability,
)
from repro.durability.journal import WalkJournal
from repro.graph import rmat
from repro.obs.report import REPORT_SCHEMA_VERSION
from repro.service.breaker import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.service.request import QueryRequest
from repro.service.service import WalkQueryService
from repro.walks import WalkSpec

ENGINE = dict(
    partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0
)
SPEC = WalkSpec(length=5)
WALKS = 800


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, RngRegistry(55).fresh("g"))


def make_engine(graph, dcfg=None, fcfg=None, seed=9, ftl=None):
    cfg = FlashWalkerConfig(
        **ENGINE,
        durability=dcfg or DurabilityConfig(),
        faults=fcfg or FaultConfig(checkpoint_interval=50e-6),
    )
    if ftl is not None:
        cfg = cfg.replace(ssd=dataclasses.replace(cfg.ssd, ftl=ftl))
    return FlashWalker(graph, cfg, seed=seed)


def dur(journal=25e-6, corruption=0.0, scrub=0.0, **kw):
    return DurabilityConfig(
        enabled=True,
        journal_interval=journal,
        silent_corruption_rate=corruption,
        scrub_interval=scrub,
        **kw,
    )


def canonical(report):
    return json.dumps(strip_durability(report), sort_keys=True)


def crash_and_recover(graph, dcfg, t_frac, fcfg=None):
    """Baseline run + one crashed-and-recovered run of the same config."""
    base = make_engine(graph, dcfg, fcfg).run(WALKS, SPEC)
    fw = make_engine(graph, dcfg, fcfg)
    fw.schedule_power_loss(base.elapsed * t_frac)
    with pytest.raises(PowerLossError):
        fw.run(WALKS, SPEC)
    return base, fw


# --------------------------------------------------------------------- config


class TestDurabilityConfig:
    def test_default_disabled(self):
        cfg = FlashWalkerConfig()
        assert cfg.durability.enabled is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(journal_interval=-1.0),
            dict(journal_record_bytes=0),
            dict(torn_page_prob=1.5),
            dict(torn_page_prob=-0.1),
            dict(silent_corruption_rate=-1.0),
            dict(max_corruption_events=-1),
            dict(quarantine_threshold=0),
            dict(scrub_interval=-1.0),
            dict(scrub_planes_per_pass=0),
            dict(checkpoint_keep_last=-1),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            DurabilityConfig(enabled=True, **kwargs).validate()

    def test_service_corruption_threshold_validated(self):
        with pytest.raises(ConfigError):
            ServiceConfig(breaker_corruption_threshold=0).validate()


# ------------------------------------------------------------ default identity


class TestDefaultRunsUntouched:
    """The durability layer is strictly opt-in: default runs carry no
    trace of it and stay deterministic."""

    def test_no_durability_attrs_or_report_section(self, graph):
        fw = make_engine(graph)
        res = fw.run(WALKS, SPEC)
        assert fw.journal is None
        assert fw.integrity is None
        assert all(c.integrity is None for ch in fw.ssd.channels
                   for c in ch.chips)
        assert res.durability is None
        report = res.to_report()
        assert "durability" not in report
        assert report["schema_version"] == REPORT_SCHEMA_VERSION

    def test_default_report_deterministic(self, graph):
        r1 = make_engine(graph).run(WALKS, SPEC).to_report()
        r2 = make_engine(graph).run(WALKS, SPEC).to_report()
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_enabled_run_reports_durability(self, graph):
        res = make_engine(graph, dur()).run(WALKS, SPEC)
        d = res.to_report()["durability"]
        assert d["enabled"] is True
        assert d["checkpoints"]["taken"] >= 1
        assert d["journal"]["appends"] > 0


# -------------------------------------------------------------------- journal


class TestWalkJournal:
    def fill(self, j, deltas, flush_at=None):
        cum = 0
        for i, d in enumerate(deltas):
            cum += d
            j.append(i * 1e-6, d, cum)
        if flush_at is not None:
            j.mark_flushed(flush_at)
        return cum

    def test_append_flush_durable(self):
        j = WalkJournal()
        self.fill(j, [3, 4, 5], flush_at=1e-3)
        assert j.pending_records == 0
        assert j.durable_cum() == 12
        assert j.durable_records() == 3
        j.append(4e-6, 2, 14)
        assert j.pending_records == 1
        assert j.durable_cum() == 12  # pending is not durable

    def test_checkpoint_truncates(self):
        j = WalkJournal()
        self.fill(j, [3, 4], flush_at=1e-3)
        j.on_checkpoint(7)
        assert j.durable_records() == 0
        assert j.durable_cum() == 7  # covered by the checkpoint itself

    def test_verify_clean(self):
        j = WalkJournal()
        self.fill(j, [1, 2, 3], flush_at=1e-3)
        assert j.verify() == []

    def test_verify_flags_dropped_record(self):
        j = WalkJournal()
        self.fill(j, [1, 2, 3], flush_at=1e-3)
        del j._durable[1]  # mutation: lose a middle record
        violations = j.verify()
        assert violations and any("gap" in v or "mismatch" in v
                                  for v in violations)

    def test_verify_flags_corrupted_record(self):
        j = WalkJournal()
        self.fill(j, [1, 2], flush_at=1e-3)
        rec = j._durable[0]
        j._durable[0] = rec._replace(delta=rec.delta + 1)
        assert any("CRC" in v for v in j.verify())

    def test_state_roundtrip(self):
        j = WalkJournal()
        self.fill(j, [5, 6], flush_at=1e-3)
        j.append(3e-6, 7, 18)
        j2 = WalkJournal()
        j2.restore(j.state())
        assert j2.durable_cum() == j.durable_cum()
        assert j2.pending_records == j.pending_records
        assert j2.verify() == []


# ----------------------------------------------------------------- retention


class TestCheckpointRetention:
    def test_unbounded_by_default(self, graph):
        fw = make_engine(graph, dur())
        res = fw.run(WALKS, SPEC)
        d = res.durability["checkpoints"]
        assert d["taken"] >= 3
        assert d["retained"] == d["taken"]

    def test_keep_last_caps_retention(self, graph):
        fw = make_engine(graph, dur(checkpoint_keep_last=2))
        res = fw.run(WALKS, SPEC)
        d = res.durability["checkpoints"]
        assert d["taken"] >= 3
        assert d["retained"] == 2
        assert fw._checkpoints.evicted == d["taken"] - 2
        # The latest snapshot survives eviction.
        assert fw.latest_checkpoint is not None
        assert fw.latest_checkpoint.time == max(
            s.time for s in fw._checkpoints.all()
        )


# ------------------------------------------------------------- power loss


class TestPowerLossRecovery:
    def test_crash_carries_context(self, graph):
        base, fw = crash_and_recover(graph, dur(), 0.5)
        info = fw._last_power_loss
        assert info is not None and info["at"] <= base.elapsed

    def test_recover_reproduces_baseline(self, graph):
        base, fw = crash_and_recover(graph, dur(), 0.5)
        res = fw.recover()
        assert canonical(res.to_report()) == canonical(base.to_report())
        ctx = res.durability["recovery"]
        assert ctx["crashes"] == 1
        assert ctx["checkpoint_time"] < ctx["t_crash"]
        assert ctx["rpo_walks"] >= 0
        assert ctx["rto_time"] >= ctx["replay_span"] > 0

    def test_journal_bounds_rpo(self, graph):
        """With the journal on, RPO never exceeds the walks completed
        since the last flush — far below checkpoint-only loss."""
        base, fw = crash_and_recover(graph, dur(), 0.6)
        ctx = fw.recover().durability["recovery"]
        ckpt_loss = ctx["completed_at_crash"] - ctx["completed_at_checkpoint"]
        assert ctx["rpo_walks"] <= ckpt_loss

    def test_crash_before_checkpoint_requires_cold_restart(self, graph):
        fw = make_engine(graph, dur())
        fw.schedule_power_loss(1e-6)  # before any checkpoint can land
        with pytest.raises(PowerLossError):
            fw.run(WALKS, SPEC)
        assert fw.latest_checkpoint is None
        with pytest.raises(SimulationError):
            fw.recover()

    def test_arm_power_loss_cancels_every_pending_cut(self, graph):
        """Re-arming replaces the whole schedule: no cut armed earlier
        (here both of schedule_power_loss's) fires afterwards."""
        fw = make_engine(graph, dur())
        fw.schedule_power_loss(1e-4, 3e-4)
        fw.start_session(SPEC, expected_walks=WALKS)
        fw.arm_power_loss(50.0)
        fw.sim.run(until=1e-3)
        assert fw.sim.now == 1e-3
        assert fw._crashes_fired == 0
        assert fw.power_loss_times == (50.0,)

    def test_torn_pages_name_every_busy_plane(self, graph):
        """At ``torn_page_prob=1.0`` every plane still busy at the cut
        holds a torn page, named as ``(chip, die, plane)`` in chip, die,
        plane order.  Two planes occupied past the cut (one on die 1)
        join the planes the workload itself keeps busy."""
        fw = make_engine(graph, dur(torn_page_prob=1.0))
        t_cut = 100e-6
        fw.schedule_power_loss(t_cut)
        fw.ssd.chip_flat(3).program_page(t_cut, 1, 2)
        fw.ssd.chip_flat(0).program_page(t_cut, 0, 3)
        with pytest.raises(PowerLossError) as info:
            fw.run(WALKS, SPEC)
        assert info.value.torn_pages == (
            (0, 0, 0), (0, 0, 3), (3, 1, 2), (4, 0, 0)
        )

    def test_recover_flags_tampered_journal(self, graph):
        """Mutation test: a dropped journal record must fail recovery."""
        base, fw = crash_and_recover(graph, dur(journal=10e-6), 0.6)
        assert fw.journal.durable_records() >= 2
        del fw.journal._durable[0]
        with pytest.raises(InvariantViolation):
            fw.recover()


class TestCrashPointProperty:
    """Seeded crash points across configs all converge to the
    uninterrupted run (the harness the CI soak job drives at scale)."""

    @pytest.mark.parametrize(
        "name,dcfg,fcfg",
        [
            ("journal", dur(), None),
            (
                "ckpt-only+faults",
                dur(journal=0.0),
                FaultConfig(
                    enabled=True, page_error_rate=0.05,
                    checkpoint_interval=50e-6,
                ),
            ),
            # Every recurring background event at once: journal flush,
            # corruption arrival, scrub and (the name's "+dftl") DFTL
            # garbage collection.
            ("journal+scrub+dftl", dur(corruption=1500.0, scrub=100e-6), None),
        ],
    )
    def test_campaign_identity(self, graph, name, dcfg, fcfg):
        ftl = FTLConfig(enabled=True) if name.endswith("+dftl") else None
        campaign = run_crash_campaign(
            lambda: make_engine(graph, dcfg, fcfg, ftl=ftl),
            lambda fw: fw.run(WALKS, SPEC),
            crash_points=3,
            seed=7,
            name=name,
        )
        assert campaign.ok, [p.diff for p in campaign.points
                             if not p.identical]
        assert any(p.mode == "recovered" for p in campaign.points)


class TestStandardDftlCampaign:
    def test_gc_moves_pages_before_the_first_crash_point(self):
        """The CLI's ``journal+scrub+dftl`` campaign recovers across a
        block reclaim: background GC has moved valid pages by its first
        crash point, and every point still reproduces the baseline."""
        spec = {c["name"]: c for c in standard_campaigns(quick=True)}[
            "journal+scrub+dftl"
        ]
        base = spec["run_workload"](spec["make_engine"]())
        assert base.counters["ftl_gc_moved_pages"] > 0
        campaign = run_crash_campaign(
            spec["make_engine"], spec["run_workload"],
            crash_points=7, seed=3, name=spec["name"],
        )
        assert campaign.ok
        first = campaign.points[0]
        assert first.mode == "recovered"
        fw = spec["make_engine"]()
        fw.schedule_power_loss(first.t_crash)
        with pytest.raises(PowerLossError):
            spec["run_workload"](fw)
        assert fw.ssd.ftl.gc_moved_pages > 0


class TestCrashLoopReportGolden:
    """The quick crash-loop report (the CI soak's command line) replays
    byte for byte, so its recovery accounting cannot drift: torn pages,
    torn-page repair time, RPO and RTO of every point.  The identity
    check the harness runs ignores that ``durability`` section.  On a
    deliberate report change, paste the digest the failure prints."""

    SHA = "2fdaec58309dbc2e8aebfb97c2fafea3e252abb843168e117ef92ce431892e29"

    def test_quick_report_matches_golden(self, tmp_path, capsys):
        out = tmp_path / "durability_report.json"
        code = durability_main([
            "--quick", "--seed", "3", "--crash-points", "7",
            "--configs", "4", "--out", str(out),
        ])
        assert code == 0, capsys.readouterr().err
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.SHA, (
            f"crash-loop report digest is {digest}; if the report change "
            f"is deliberate, set SHA to it"
        )


# ------------------------------------------------------------- integrity


class TestSilentCorruption:
    def test_detect_repair_and_scrub(self, graph):
        fw = make_engine(graph, dur(corruption=3000.0, scrub=100e-6))
        res = fw.run(WALKS, SPEC)
        it = res.durability["integrity"]
        assert it["injected"] > 0
        assert it["detected"] + it["scrub_detected"] > 0
        assert it["repaired"] == it["detected"] + it["scrub_detected"]
        assert it["unrepairable"] == 0
        assert fw.integrity.scrub_passes > 0

    def test_repair_charges_parity_reads(self, graph):
        """RAIN reconstruction reads every surviving sibling chip."""
        fw = make_engine(graph, dur(corruption=3000.0, scrub=100e-6))
        base = make_engine(graph).run(WALKS, SPEC)
        res = fw.run(WALKS, SPEC)
        repaired = res.durability["integrity"]["repaired"]
        assert repaired > 0
        extra = res.flash_read_bytes - base.flash_read_bytes
        page = fw.cfg.ssd.page_bytes
        cpc = fw.cfg.ssd.chips_per_channel
        # At least (chips_per_channel - 1) survivor reads per repair,
        # on top of scrub reads.
        assert extra >= repaired * (cpc - 1) * page

    def test_quarantine_retires_plane(self, graph):
        fw = make_engine(
            graph, dur(corruption=5000.0, scrub=50e-6,
                       quarantine_threshold=1, max_corruption_events=16),
        )
        res = fw.run(WALKS, SPEC)
        it = res.durability["integrity"]
        if it["repaired"] == 0:
            pytest.skip("no repair landed under this seed")
        assert it["quarantined"] >= 1
        assert fw.ssd.ftl.bad_block_count >= 1

    def test_page_without_surviving_sibling_is_counted_lost(self):
        """Two chips per channel and one of them failed: a corrupted
        plane on its sibling has no parity-group survivor.  The page is
        counted unrepairable and every walk still completes."""
        graph = rmat(9, 8, RngRegistry(55).fresh("g"))
        cfg = FlashWalkerConfig(**ENGINE, ssd=gc_pressure_ssd(SSDConfig()))
        victim = int(FlashWalker(graph, cfg, seed=3).block_chip[0])
        fcfg = FaultConfig(
            enabled=True, page_error_rate=0.05, crc_error_rate=0.02,
            chip_failures=((100e-6, victim),), checkpoint_interval=50e-6,
        )
        fw = FlashWalker(graph, cfg.replace(
            faults=fcfg, durability=dur(corruption=1500.0, scrub=20e-6),
        ), seed=3)
        res = fw.run(2000, SPEC)
        assert fw.completed_walks == res.total_walks == 2000
        it = res.durability["integrity"]
        assert it["unrepairable"] > 0
        assert it["repaired"] + it["unrepairable"] == (
            it["detected"] + it["scrub_detected"]
        )

    def test_corruption_events_capped(self, graph):
        fw = make_engine(
            graph, dur(corruption=50000.0, max_corruption_events=3)
        )
        res = fw.run(WALKS, SPEC)
        assert res.durability["integrity"]["injected"] <= 3


# ------------------------------------------------------- FTL remap regression


class TestFtlRemapRecovery:
    def test_remap_log_replayed_on_restore(self, graph):
        """Regression: a crash *after* a bad-block remap must recover
        onto an FTL with the same page routing, not a pristine one."""
        fcfg = FaultConfig(
            enabled=True, page_error_rate=0.3, retry_success_prob=0.3,
            max_read_retries=2, checkpoint_interval=50e-6,
        )
        base_fw = make_engine(graph, dur(), fcfg)
        base = base_fw.run(WALKS, SPEC)
        assert base_fw.ssd.ftl.remap_log, "workload produced no remaps"

        fw = make_engine(graph, dur(), fcfg)
        fw.schedule_power_loss(base.elapsed * 0.7)
        with pytest.raises(PowerLossError):
            fw.run(WALKS, SPEC)
        assert fw.ssd.ftl.remap_log, "crash landed before any remap"
        res = fw.recover()
        assert canonical(res.to_report()) == canonical(base.to_report())
        ftl, ref = fw.ssd.ftl, base_fw.ssd.ftl
        assert ftl.remap_log == ref.remap_log
        assert ftl.bad_block_count == ref.bad_block_count
        assert [sorted(s) for s in ftl._bad_blocks] == [
            sorted(s) for s in ref._bad_blocks
        ]
        assert np.array_equal(ftl._active_block, ref._active_block)


# ------------------------------------------------------------------ service


def _service(graph, dcfg, scfg=None):
    fw = make_engine(graph, dcfg)
    return fw, WalkQueryService(
        fw, scfg or ServiceConfig(default_deadline=50e-3)
    )


REQUESTS = [
    QueryRequest(query_id=i, arrival=i * 20e-6, num_walks=60, length=5,
                 deadline=50e-3)
    for i in range(12)
]


class TestServiceSurvivesPowerLoss:
    def test_resume_matches_uninterrupted(self, graph):
        _, svc0 = _service(graph, dur())
        out0 = svc0.run(list(REQUESTS))
        key0 = [(r.query_id, r.status, r.walks_completed, r.finish_time)
                for r in out0.responses]

        fw, svc = _service(graph, dur())
        fw.schedule_power_loss(out0.result.elapsed * 0.55)
        with pytest.raises(PowerLossError):
            svc.run(list(REQUESTS))
        out1 = svc.resume()
        key1 = [(r.query_id, r.status, r.walks_completed, r.finish_time)
                for r in out1.responses]
        assert key1 == key0
        assert out1.result.elapsed == out0.result.elapsed
        assert out1.result.durability["recovery"]["crashes"] == 1

    def test_resume_without_checkpoint_raises(self, graph):
        fw, svc = _service(graph, dur())
        fw.schedule_power_loss(1e-6)
        with pytest.raises(PowerLossError):
            svc.run(list(REQUESTS))
        with pytest.raises(SimulationError):
            svc.resume()


class TestResumeWhileBreakerOpen:
    """Power loss landing inside a breaker-open window: deferred
    arrivals are volatile coordinator state, so the recovery replay
    must reproduce the trip, the deferrals, and the reopen schedule
    exactly or deferred queries are lost or served twice."""

    T_FAIL = 150e-6

    def _build(self, graph):
        probe = make_engine(graph)
        victim = int(probe.block_chip[0])
        fcfg = FaultConfig(
            enabled=True,
            page_error_rate=0.05,
            crc_error_rate=0.02,
            chip_failures=((self.T_FAIL, victim),),
            checkpoint_interval=50e-6,
        )
        fw = make_engine(graph, dur(), fcfg)
        svc = WalkQueryService(fw, ServiceConfig(
            default_deadline=50e-3,
            breaker_policy="defer",
            breaker_cooldown=500e-6,
        ))
        return fw, svc

    @staticmethod
    def _key(out):
        return [
            (r.query_id, r.status, r.walks_completed, r.finish_time,
             r.shed_reason)
            for r in out.responses
        ]

    def test_resume_mid_open_window_matches_baseline(self, graph):
        _, svc0 = self._build(graph)
        out0 = svc0.run(list(REQUESTS))
        s0 = out0.result.service
        # Preconditions: the chip failure tripped the breaker and at
        # least one arrival was deferred rather than shed.
        assert s0["breaker"]["trips"] >= 1
        assert s0["breaker"]["deferrals"] >= 1
        assert s0["requests"]["shed"] == 0

        fw, svc = self._build(graph)
        # Crash inside the open window [T_FAIL, T_FAIL + cooldown],
        # after the trip but before the deferred queue reopens.
        fw.schedule_power_loss(self.T_FAIL + 100e-6)
        with pytest.raises(PowerLossError):
            svc.run(list(REQUESTS))
        out1 = svc.resume()
        assert self._key(out1) == self._key(out0)
        assert out1.result.elapsed == out0.result.elapsed
        assert out1.result.durability["recovery"]["crashes"] == 1
        s1 = out1.result.service
        assert s1["breaker"]["trips"] == s0["breaker"]["trips"]
        assert s1["breaker"]["deferrals"] == s0["breaker"]["deferrals"]


class TestBreakerCorruptionSignal:
    def test_detected_corruption_trips_breaker(self):
        cfg = ServiceConfig(breaker_corruption_threshold=2).validate()
        engine = SimpleNamespace(
            fault_model=None, integrity=SimpleNamespace(detected=0)
        )
        br = CircuitBreaker(cfg, engine)
        assert not br.is_open(0.0)
        engine.integrity.detected = 1
        assert not br.is_open(1e-3)  # below threshold
        engine.integrity.detected = 3
        assert br.is_open(1e-3)
        assert br.trips == 1
        # Counter latched: no re-trip without new detections.
        assert not br.is_open(1e-3 + cfg.breaker_cooldown + 1e-9)

    def test_none_integrity_is_ignored(self):
        cfg = ServiceConfig().validate()
        engine = SimpleNamespace(fault_model=None, integrity=None)
        assert not CircuitBreaker(cfg, engine).is_open(0.0)


class TestAllLayersResume:
    """Every layer at once — page and CRC faults, a chip failure,
    slow-fault windows, journal + corruption + scrub, DFTL with block
    reclaims — under the query service with a deferring breaker,
    power-failed after a checkpoint and resumed into a fresh engine."""

    @staticmethod
    def _build(graph):
        # Four chips per channel leave RAIN a surviving sibling to
        # repair corruption from after the chip failure.
        cfg = FlashWalkerConfig(**ENGINE)
        cfg = cfg.replace(ssd=dataclasses.replace(
            gc_pressure_ssd(cfg.ssd), chips_per_channel=4
        ))
        chips = FlashWalker(graph, cfg, seed=9).block_chip
        fcfg = FaultConfig(
            enabled=True,
            page_error_rate=0.05,
            crc_error_rate=0.02,
            chip_failures=((100e-6, int(chips[0])),),
            checkpoint_interval=50e-6,
            slow=SlowFaultConfig(enabled=True, windows=(
                ("chip-read", int(chips[1]), 0.0, 4e-3, 3.0),
                ("channel-bus", 0, 2e-3, 6e-3, 2.0),
            )),
        )
        fw = FlashWalker(graph, cfg.replace(
            durability=dur(corruption=1500.0, scrub=100e-6), faults=fcfg,
        ), seed=9)
        svc = WalkQueryService(fw, ServiceConfig(
            default_deadline=50e-3,
            breaker_policy="defer",
            breaker_cooldown=500e-6,
        ))
        return fw, svc

    def test_fresh_engine_resume_matches_uninterrupted(self, graph):
        _, svc0 = self._build(graph)
        out0 = svc0.run(list(REQUESTS))
        c = out0.result.counters
        assert out0.result.service["breaker"]["deferrals"] >= 1
        assert c["ftl_gc_moved_pages"] > 0 and c["slow_read_ops"] > 0
        crashed, svc = self._build(graph)
        crashed.schedule_power_loss(out0.result.elapsed * 0.6)
        with pytest.raises(PowerLossError):
            svc.run(list(REQUESTS))
        ckpt = crashed.latest_checkpoint
        assert ckpt is not None and ckpt.data is not None
        _, fresh = self._build(graph)
        out1 = fresh.resume(checkpoint=ckpt)
        # Compared as the crash campaigns compare, less the service's
        # audit count: audit cadence restarts at the restore point (a
        # documented recovery variant of WalkQueryService.resume).
        reports = []
        for out in (out0, out1):
            report = out.result.to_report()
            report["service"]["audit"].pop("audits")
            reports.append(canonical(report))
        assert reports[1] == reports[0]
        assert out1.responses == out0.responses

    def test_captured_state_is_not_reached_by_later_events(
        self, graph, monkeypatch
    ):
        """Each checkpoint's data is unchanged by everything the live
        run (and a resume from it) does after the capture."""
        import pickle

        import repro.faults.checkpoint as checkpoint

        captured = []
        capture = checkpoint.capture_checkpoint

        def recording(fw, t):
            ckpt = capture(fw, t)
            captured.append((ckpt, pickle.dumps(ckpt.data)))
            return ckpt

        monkeypatch.setattr(checkpoint, "capture_checkpoint", recording)
        _, svc = self._build(graph)
        svc.run(list(REQUESTS))
        assert len(captured) >= 2
        svc.resume(checkpoint=captured[0][0])
        for ckpt, data in captured:
            assert pickle.dumps(ckpt.data) == data
