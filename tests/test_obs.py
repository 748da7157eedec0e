"""Tests for the observability layer: tracer, reports, CLI."""

from __future__ import annotations

import json

import pytest

from repro.common import FlashWalkerConfig, RngRegistry
from repro.common.errors import ReproError
from repro.core.flashwalker import FlashWalker
from repro.graph import rmat
from repro.obs import (
    PID_BOARD,
    PID_CHANNEL_ACCEL,
    PID_CHIP_ACCEL,
    PID_FLASH,
    MetricsConfig,
    TraceConfig,
    Tracer,
    validate_trace,
)
from repro.obs.cli import main as obs_main
from repro.obs.report import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    build_report,
    config_fingerprint,
    diff_reports,
)


# -- TraceConfig -------------------------------------------------------------


class TestTraceConfig:
    def test_defaults_validate(self):
        cfg = TraceConfig().validate()
        assert cfg.categories is None
        assert cfg.max_events == 1_000_000

    def test_rejects_bad_max_events(self):
        with pytest.raises(ReproError):
            TraceConfig(max_events=0).validate()

    def test_rejects_bad_bucket(self):
        with pytest.raises(ReproError):
            TraceConfig(utilization_bucket=0.0).validate()

    def test_rejects_unknown_category(self):
        with pytest.raises(ReproError, match="unknown trace categories"):
            TraceConfig(categories=frozenset({"flash", "nonsense"})).validate()

    def test_accepts_category_subset(self):
        TraceConfig(categories=frozenset({"accel", "sched"})).validate()


# -- Tracer unit behaviour ---------------------------------------------------


class TestTracer:
    def test_span_recording_and_counts(self):
        tr = Tracer()
        tr.span("flash", PID_FLASH, 0, "page_read", 1e-3, 2e-3)
        tr.span("accel", PID_CHIP_ACCEL, 1, "chip_batch", 0.0, 1e-4)
        tr.instant("sched", PID_BOARD, 0, "topn_refresh", t=5e-4)
        assert tr.span_counts() == {"flash": 1, "accel": 1, "sched": 1}

    def test_category_filter_drops_unwanted(self):
        tr = Tracer(TraceConfig(categories=frozenset({"accel"})))
        assert tr.wants("accel") and not tr.wants("flash")
        tr.span("flash", PID_FLASH, 0, "page_read", 0.0, 1e-3)
        tr.span("accel", PID_CHIP_ACCEL, 0, "chip_batch", 0.0, 1e-3)
        assert tr.span_counts() == {"accel": 1}

    def test_max_events_cap_counts_drops(self):
        tr = Tracer(TraceConfig(max_events=2))
        for i in range(5):
            tr.span("run", 7, 0, f"s{i}", 0.0, 1.0)
        assert len(tr.events) == 2
        assert tr.dropped == 3
        assert tr.to_chrome_trace()["otherData"]["dropped_events"] == 3

    def test_bound_clock_stamps_instants(self):
        tr = Tracer()
        t = [0.0]
        tr.bind_clock(lambda: t[0])
        t[0] = 2.5e-3
        tr.instant("fault", 6, 0, "chip_failure")
        assert tr.events[0][4] == pytest.approx(2.5e-3)

    def test_unbound_clock_defaults_to_zero(self):
        assert Tracer().now() == 0.0

    def test_busy_builds_utilization_timeline(self):
        tr = Tracer(TraceConfig(utilization_bucket=50e-6))
        tr.busy("planes", 0.0, 100e-6)  # two full buckets
        starts, level = tr.utilization_timelines()["planes"]
        assert level[:2] == pytest.approx([1.0, 1.0])

    def test_busy_rejects_negative_interval(self):
        with pytest.raises(ReproError):
            Tracer().busy("planes", 1.0, 0.5)

    def test_busy_ignores_zero_interval(self):
        tr = Tracer()
        tr.busy("planes", 1.0, 1.0)
        assert tr.utilization_timelines() == {}

    def test_latency_histograms(self):
        tr = Tracer()
        for v in (10e-6, 20e-6, 30e-6):
            tr.latency("page_read", v)
        hist = tr.latency_histograms()["page_read"]
        assert hist.total == 3
        assert hist.mean == pytest.approx(20e-6)

    def test_highwater_keeps_maximum(self):
        tr = Tracer()
        tr.highwater("buf", 5)
        tr.highwater("buf", 3)
        tr.highwater("buf", 9)
        assert tr.highwaters == {"buf": 9.0}

    def test_chrome_export_scales_to_microseconds(self):
        tr = Tracer()
        tr.span("flash", PID_FLASH, 2, "page_read", 1e-3, 3e-3, args={"bytes": 4096})
        obj = tr.to_chrome_trace()
        [ev] = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        assert ev["ts"] == pytest.approx(1000.0)
        assert ev["dur"] == pytest.approx(2000.0)
        assert ev["args"] == {"bytes": 4096}
        names = {e["name"] for e in obj["traceEvents"] if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= names
        assert validate_trace(obj) == []

    def test_export_chrome_writes_valid_json(self, tmp_path):
        tr = Tracer()
        tr.span("run", 7, 0, "x", 0.0, 1.0)
        path = tmp_path / "trace.json"
        n = tr.export_chrome(str(path))
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
        assert len(obj["traceEvents"]) == n
        assert validate_trace(obj) == []


class TestValidateTrace:
    def test_rejects_non_object(self):
        assert validate_trace([1, 2]) != []

    def test_rejects_missing_events(self):
        assert validate_trace({"foo": 1}) == ["missing 'traceEvents' array"]

    def test_rejects_bad_phase(self):
        bad = {"traceEvents": [{"ph": "Z", "pid": 1, "tid": 0, "ts": 0, "name": "x"}]}
        assert any("bad phase" in p for p in validate_trace(bad))

    def test_rejects_negative_ts(self):
        bad = {"traceEvents": [{"ph": "i", "pid": 1, "tid": 0, "ts": -5, "name": "x"}]}
        assert any("non-negative" in p for p in validate_trace(bad))

    def test_rejects_complete_event_without_dur(self):
        bad = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "ts": 0, "name": "x"}]}
        assert any("dur" in p for p in validate_trace(bad))


# -- reports -----------------------------------------------------------------


class TestReport:
    def test_fingerprint_is_stable_and_discriminating(self):
        a = FlashWalkerConfig()
        assert config_fingerprint(a) == config_fingerprint(FlashWalkerConfig())
        b = a.replace(partition_subgraphs=4)
        assert config_fingerprint(a) != config_fingerprint(b)
        assert config_fingerprint(a).startswith("sha256:")

    def test_fingerprint_accepts_mappings(self):
        assert config_fingerprint({"x": 1}) == config_fingerprint({"x": 1})
        assert config_fingerprint({"x": 1}) != config_fingerprint({"x": 2})

    def test_diff_identical_reports_is_empty(self):
        r = {"elapsed": 1.0, "counters": {"hops": 5.0}}
        assert diff_reports(r, dict(r)) == {}

    def test_diff_flags_changed_counters(self):
        a = {"elapsed": 1.0, "counters": {"hops": 100.0}}
        b = {"elapsed": 1.0, "counters": {"hops": 110.0}}
        changes = diff_reports(a, b)
        assert changes["counters.hops"]["rel"] == pytest.approx(110 / 110 - 100 / 110)

    def test_diff_rel_tol_suppresses_noise(self):
        a = {"elapsed": 1.0, "counters": {}}
        b = {"elapsed": 1.0000001, "counters": {}}
        assert diff_reports(a, b, rel_tol=1e-3) == {}
        assert diff_reports(a, b) != {}

    def test_diff_counter_missing_on_one_side(self):
        a = {"counters": {"hops": 3.0}}
        b = {"counters": {}}
        assert "counters.hops" in diff_reports(a, b)


# -- engine integration ------------------------------------------------------


@pytest.fixture(scope="module")
def obs_graph():
    return rmat(11, 8, RngRegistry(7).stream("obs"))


@pytest.fixture(scope="module")
def obs_config():
    # Few, cold partitions: forces subgraph loads and board/channel
    # traffic so every accelerator level shows up even on a small graph.
    return FlashWalkerConfig().replace(
        partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=1
    )


class TestTracedRuns:
    def test_default_run_carries_no_trace(self, obs_graph, obs_config):
        res = FlashWalker(obs_graph, obs_config, seed=3).run(num_walks=200)
        assert res.trace is None
        assert res.seed == 3
        assert res.config_fingerprint == config_fingerprint(obs_config)

    @pytest.mark.parametrize("layers", [
        pytest.param({"trace": TraceConfig()}, id="trace"),
        pytest.param({"telemetry": MetricsConfig()}, id="telemetry"),
        pytest.param({"trace": TraceConfig(), "telemetry": MetricsConfig()},
                     id="trace+telemetry"),
    ])
    def test_tracing_does_not_change_simulated_results(
        self, obs_graph, obs_config, layers
    ):
        base = FlashWalker(obs_graph, obs_config, seed=3).run(num_walks=300)
        observed = FlashWalker(
            obs_graph, obs_config, seed=3, **layers
        ).run(num_walks=300)
        assert observed.elapsed == base.elapsed
        assert observed.hops == base.hops
        for total in ("flash_read_bytes", "flash_write_bytes",
                      "channel_bytes", "dram_bytes"):
            assert getattr(observed, total) == getattr(base, total), total
        assert observed.counters == base.counters

    def test_trace_covers_all_accelerator_levels(self, obs_graph, obs_config):
        res = FlashWalker(
            obs_graph, obs_config, seed=3, trace=TraceConfig()
        ).run(num_walks=300)
        accel_pids = {ev[2] for ev in res.trace.events if ev[1] == "accel"}
        assert {PID_BOARD, PID_CHANNEL_ACCEL, PID_CHIP_ACCEL} <= accel_pids
        hists = res.trace.latency_histograms()
        assert {"page_read", "bus_transfer", "subgraph_load", "chip_batch"} <= set(hists)
        assert all(h.total > 0 for h in hists.values())
        assert res.trace.highwaters  # buffer occupancy tracked
        assert validate_trace(res.trace.to_chrome_trace()) == []

    def test_utilization_includes_trace_timelines(self, obs_graph, obs_config):
        res = FlashWalker(
            obs_graph, obs_config, seed=3, trace=TraceConfig()
        ).run(num_walks=300)
        util = res.utilization()
        assert 0.0 < util["board_accel"]["mean_busy"] <= 1.0
        assert "planes" in util and util["planes"]["peak_busy"] > 0
        assert "bus" in util

    def test_report_roundtrips_and_carries_schema(self, obs_graph, obs_config):
        res = FlashWalker(
            obs_graph, obs_config, seed=3, trace=TraceConfig()
        ).run(num_walks=300)
        report = res.to_report(extra={"note": "test"})
        assert report["schema"] == REPORT_SCHEMA
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["seed"] == 3
        assert report["extra"] == {"note": "test"}
        assert report["latency_percentiles"]["page_read"]["n"] > 0
        assert report["trace"]["events"] == len(res.trace.events)
        assert json.loads(json.dumps(report)) == report
        # build_report is the same entry point RunResult.to_report uses
        assert build_report(res, extra={"note": "test"}) == report

    def test_category_subset_limits_recording(self, obs_graph, obs_config):
        res = FlashWalker(
            obs_graph,
            obs_config,
            seed=3,
            trace=TraceConfig(categories=frozenset({"accel"})),
        ).run(num_walks=200)
        assert set(res.trace.span_counts()) == {"accel"}


# -- CLI ---------------------------------------------------------------------


class TestCli:
    RUN = ["--dataset", "TT", "--walks", "64", "--length", "4", "--seed", "3",
           "--exercise-hierarchy"]

    def test_export_trace_then_validate(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert obs_main(["export-trace", *self.RUN, "--out", str(out)]) == 0
        assert obs_main(["validate", str(out)]) == 0
        text = capsys.readouterr().out
        assert "valid Chrome trace-event JSON" in text

    def test_export_trace_category_filter(self, tmp_path):
        out = tmp_path / "trace.json"
        rc = obs_main(
            ["export-trace", *self.RUN, "--out", str(out), "--categories", "accel"]
        )
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            obj = json.load(f)
        cats = {e.get("cat") for e in obj["traceEvents"] if e["ph"] != "M"}
        assert cats == {"accel"}

    def test_report_diff_cycle(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert obs_main(["report", *self.RUN, "--out", str(a)]) == 0
        assert obs_main(["report", *self.RUN, "--out", str(b)]) == 0
        # Same seed and config: identical reports, diff exits clean.
        assert obs_main(["diff", str(a), str(b), "--fail-on-change"]) == 0
        # A perturbed report is flagged, and --fail-on-change makes it fatal.
        report = json.loads(a.read_text())
        report["counters"]["hops"] += 1
        c = tmp_path / "c.json"
        c.write_text(json.dumps(report))
        assert obs_main(["diff", str(a), str(c)]) == 0
        assert obs_main(["diff", str(a), str(c), "--fail-on-change"]) == 1
        assert "counters.hops" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert obs_main(["validate", str(bad)]) == 1
        notjson = tmp_path / "notjson.json"
        notjson.write_text("{")
        assert obs_main(["validate", str(notjson)]) == 1
