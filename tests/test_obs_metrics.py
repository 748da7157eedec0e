"""Deterministic metrics registry and alert rules."""

from __future__ import annotations

import json

import pytest

from repro.common import FlashWalkerConfig, RngRegistry
from repro.common.errors import ConfigError
from repro.core.flashwalker import FlashWalker
from repro.graph import rmat
from repro.obs import (
    AlertEngine,
    AlertRule,
    MetricsConfig,
    MetricsRegistry,
    validate_report,
)
from repro.obs.cli import main as obs_main
from repro.obs.report import REPORT_SCHEMA_VERSION


# -- MetricsConfig -----------------------------------------------------------


class TestMetricsConfig:
    def test_defaults_validate(self):
        cfg = MetricsConfig().validate()
        assert cfg.sample_interval == 20e-6
        assert cfg.max_samples == 2048

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigError):
            MetricsConfig(sample_interval=0.0).validate()

    def test_rejects_bad_max_samples(self):
        with pytest.raises(ConfigError):
            MetricsConfig(max_samples=0).validate()


# -- registry unit behaviour -------------------------------------------------


def registry(interval=1.0, max_samples=2048) -> MetricsRegistry:
    return MetricsRegistry(
        MetricsConfig(sample_interval=interval, max_samples=max_samples)
    )


class TestInstruments:
    def test_counter_series_is_cumulative(self):
        reg = registry()
        c = reg.counter("reqs")
        c.inc(2.0, t=0.5)
        c.inc(3.0, t=2.5)
        n, factor, _ = reg.grid(t_end=4.0)
        assert c.series(n, factor) == [2.0, 2.0, 5.0, 5.0, 5.0]
        assert c.total == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            registry().counter("x").inc(-1.0, t=0.0)

    def test_gauge_series_is_step_function(self):
        reg = registry()
        g = reg.gauge("depth")
        g.set(3.0, t=0.1)
        g.set(1.0, t=2.9)
        n, factor, _ = reg.grid(t_end=4.0)
        assert g.series(n, factor) == [3.0, 3.0, 1.0, 1.0, 1.0]
        assert g.last == 1.0 and g.max == 3.0

    def test_gauge_last_write_in_cell_wins(self):
        reg = registry()
        g = reg.gauge("depth")
        g.set(7.0, t=0.1)
        g.set(2.0, t=0.9)
        n, factor, _ = reg.grid(t_end=1.0)
        assert g.series(n, factor)[0] == 2.0

    def test_histogram_buckets_and_series(self):
        reg = registry()
        h = reg.histogram("lat", (1.0, 2.0, 4.0))
        for v, t in ((0.5, 0.0), (1.5, 1.5), (8.0, 1.6)):
            h.observe(v, t=t)
        assert h.counts == [1, 1, 0, 1]
        assert h.count == 3 and h.sum == 10.0
        n, factor, _ = reg.grid(t_end=3.0)
        assert h.series(n, factor) == [1.0, 3.0, 3.0, 3.0]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigError):
            registry().histogram("h", (2.0, 1.0))

    def test_kind_clash_raises(self):
        reg = registry()
        reg.counter("x")
        with pytest.raises(ConfigError, match="already registered"):
            reg.gauge("x")

    def test_labels_make_distinct_series_in_sorted_order(self):
        reg = registry()
        reg.counter("m", shard="1").inc(1.0, t=0.0)
        reg.counter("m", shard="0").inc(1.0, t=0.0)
        keys = [i.key() for i in reg.instruments()]
        assert keys == ['m{shard="0"}', 'm{shard="1"}']

    def test_coarsening_is_deterministic_and_bounded(self):
        reg = registry(interval=1.0, max_samples=4)
        c = reg.counter("x")
        for t in range(10):
            c.inc(1.0, t=float(t))
        n, factor, eff = reg.grid(t_end=10.0)
        assert n <= 4 and factor == 3 and eff == 3.0
        series = c.series(n, factor)
        assert series[-1] == 10.0
        assert series == sorted(series)  # cumulative stays monotone

    def test_span_covers_late_observations(self):
        # Observations can land past the caller's end time (spread
        # recordings); the grid must still cover them.
        reg = registry()
        reg.counter("x").inc(1.0, t=9.5)
        n, factor, _ = reg.grid(t_end=2.0)
        assert n >= 10

    def test_section_shape(self):
        reg = registry()
        reg.counter("c").inc(1.0, t=0.0)
        reg.gauge("g").set(2.0, t=0.0)
        reg.histogram("h", (1.0,)).observe(0.5, t=0.0)
        sec = reg.section(t_end=2.0)
        assert sec["schema"] == "repro.obs.metrics"
        assert sec["samples"] >= 1
        kinds = {s["name"]: s["kind"] for s in sec["series"]}
        assert kinds == {"c": "counter", "g": "gauge", "h": "histogram"}
        for s in sec["series"]:
            assert len(s["values"]) == sec["samples"]
        assert "alerts" not in sec  # no rules registered

    def test_openmetrics_format(self):
        reg = registry()
        reg.counter("walks", status="ok").inc(3.0, t=0.0)
        reg.histogram("lat", (1.0, 2.0)).observe(1.5, t=0.0)
        text = reg.to_openmetrics(t_end=1.0)
        assert "# TYPE walks counter" in text
        assert 'walks_total{status="ok"} 3' in text
        assert 'lat_bucket{le="2"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert text.endswith("# EOF\n")

    def test_add_rules_dedupes_by_name(self):
        reg = registry()
        rule = AlertRule(name="r", metric="m")
        reg.add_rules([rule])
        reg.add_rules([rule])
        assert len(reg.rules) == 1


# -- alert rules -------------------------------------------------------------


class TestAlertRules:
    def test_validate_rejects_unknown_kind_and_op(self):
        with pytest.raises(ConfigError):
            AlertRule(name="r", metric="m", kind="nope").validate()
        with pytest.raises(ConfigError):
            AlertRule(name="r", metric="m", op="!=").validate()
        with pytest.raises(ConfigError):
            AlertRule(name="r", metric="m", kind="burn_rate").validate()

    def test_threshold_level_fires_and_mutated_threshold_does_not(self):
        reg = registry()
        reg.gauge("depth").set(2.0, t=1.0)
        fires = AlertEngine(
            [AlertRule(name="deep", metric="depth", op=">=", threshold=1.0)]
        ).evaluate(reg, t_end=4.0)
        assert len(fires) == 1
        f = fires[0]
        assert f["rule"] == "deep" and f["series"] == "depth"
        assert f["t_start"] == 1.0 and f["t_end"] == 5.0  # holds to grid end
        quiet = AlertEngine(
            [AlertRule(name="deep", metric="depth", op=">=", threshold=5.0)]
        ).evaluate(reg, t_end=4.0)
        assert quiet == []

    def test_threshold_increase_fires_only_on_the_delta(self):
        reg = registry()
        c = reg.counter("errors")
        c.inc(1.0, t=2.5)
        rule = AlertRule(
            name="err", metric="errors", op=">", threshold=0.0,
            signal="increase",
        )
        fires = AlertEngine([rule]).evaluate(reg, t_end=6.0)
        # One sample saw an increase; the cumulative level afterwards
        # must not keep the firing open.
        assert len(fires) == 1
        assert fires[0]["samples"] == 1
        assert fires[0]["t_start"] == 2.0 and fires[0]["t_end"] == 3.0

    def test_for_samples_suppresses_short_spikes(self):
        reg = registry()
        g = reg.gauge("depth")
        g.set(9.0, t=1.0)
        g.set(0.0, t=2.0)
        rule = AlertRule(
            name="sustained", metric="depth", op=">=", threshold=1.0,
            for_samples=2,
        )
        assert AlertEngine([rule]).evaluate(reg, t_end=5.0) == []
        g2 = reg.gauge("depth2")
        g2.set(9.0, t=1.0)
        g2.set(0.0, t=3.0)
        rule2 = AlertRule(
            name="sustained2", metric="depth2", op=">=", threshold=1.0,
            for_samples=2,
        )
        assert len(AlertEngine([rule2]).evaluate(reg, t_end=5.0)) == 1

    def test_burn_rate_fires_under_tight_budget_only(self):
        reg = registry()
        bad, total = reg.counter("misses"), reg.counter("responses")
        for t in range(8):
            total.inc(10.0, t=float(t))
            if t >= 4:
                bad.inc(2.0, t=float(t))  # 20% bad from t=4 on
        tight = AlertRule(
            name="burn", metric="misses", kind="burn_rate",
            denominator="responses", budget=0.05, threshold=1.0, op=">=",
            window=4,
        )
        fires = AlertEngine([tight]).evaluate(reg, t_end=8.0)
        assert fires and fires[0]["kind"] == "burn_rate"
        assert fires[0]["value"] >= 1.0
        lenient = AlertRule(
            name="burn", metric="misses", kind="burn_rate",
            denominator="responses", budget=1.0, threshold=1.0, op=">=",
            window=4,
        )
        assert AlertEngine([lenient]).evaluate(reg, t_end=8.0) == []

    def test_burn_rate_without_denominator_series_is_silent(self):
        reg = registry()
        reg.counter("misses").inc(1.0, t=0.0)
        rule = AlertRule(
            name="burn", metric="misses", kind="burn_rate",
            denominator="responses", budget=0.01,
        )
        assert AlertEngine([rule]).evaluate(reg, t_end=2.0) == []

    def test_label_selector_matches_superset_series(self):
        reg = registry()
        reg.gauge("open", shard="0").set(1.0, t=0.0)
        reg.gauge("open", shard="1").set(0.0, t=0.0)
        rule = AlertRule(
            name="open0", metric="open", op=">=", threshold=1.0,
            labels=(("shard", "0"),),
        )
        fires = AlertEngine([rule]).evaluate(reg, t_end=2.0)
        assert [f["labels"] for f in fires] == [{"shard": "0"}]

    def test_firings_land_in_section(self):
        reg = registry()
        reg.gauge("depth").set(2.0, t=0.0)
        reg.add_rules(
            [AlertRule(name="deep", metric="depth", op=">=", threshold=1.0)]
        )
        sec = reg.section(t_end=2.0)
        assert sec["alerts"]["rules"] == ["deep"]
        assert len(sec["alerts"]["firings"]) == 1


# -- engine integration ------------------------------------------------------


@pytest.fixture(scope="module")
def mx_graph():
    return rmat(10, 8, RngRegistry(7).stream("mx"))


@pytest.fixture(scope="module")
def mx_config():
    return FlashWalkerConfig().replace(
        partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=1
    )


class TestEngineTelemetry:
    def test_default_run_has_no_telemetry(self, mx_graph, mx_config):
        res = FlashWalker(mx_graph, mx_config, seed=3).run(num_walks=200)
        assert res.telemetry is None
        assert "telemetry" not in res.to_report()

    def test_metrics_do_not_change_simulated_results(self, mx_graph, mx_config):
        base = FlashWalker(mx_graph, mx_config, seed=3).run(num_walks=200)
        metered = FlashWalker(
            mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
        ).run(num_walks=200)
        b, m = base.to_report(), metered.to_report()
        assert b["counters"] == m["counters"]
        assert b["elapsed"] == m["elapsed"]
        assert b["traffic"] == m["traffic"]
        assert "telemetry" in m

    def test_same_seed_series_are_byte_identical(self, mx_graph, mx_config):
        runs = [
            FlashWalker(
                mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
            ).run(num_walks=200).to_report()["telemetry"]
            for _ in range(2)
        ]
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True
        )

    def test_traffic_totals_match_counters(self, mx_graph, mx_config):
        res = FlashWalker(
            mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
        ).run(num_walks=200)
        tel = res.to_report()["telemetry"]
        by_name = {s["name"]: s for s in tel["series"]}
        assert by_name["engine_flash_read_bytes"]["total"] == float(
            res.flash_read_bytes
        )
        assert by_name["engine_walks_completed"]["total"] == float(
            res.total_walks
        )
        # Cumulative series end at the whole-run total.
        assert by_name["engine_flash_read_bytes"]["values"][-1] == float(
            res.flash_read_bytes
        )

    def test_v4_report_validates(self, mx_graph, mx_config):
        res = FlashWalker(
            mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
        ).run(num_walks=200)
        report = json.loads(json.dumps(res.to_report()))
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert validate_report(report) == []

    def test_validate_flags_broken_telemetry(self):
        assert validate_report({"schema": "nope"})
        broken = {
            "schema": "repro.obs.run-report",
            "schema_version": REPORT_SCHEMA_VERSION,
            "seed": 1, "elapsed": 1.0, "total_walks": 1, "hops": 1,
            "traffic": {}, "counters": {},
            "telemetry": {
                "sample_interval": 0, "samples": 2,
                "series": [{"name": "x", "kind": "counter", "values": [1.0]}],
            },
        }
        problems = validate_report(broken)
        assert any("sample_interval" in p for p in problems)
        assert any("values" in p for p in problems)
        # bool subclasses int, but a JSON `true` is not a number.
        for where, key in (("report", "schema_version"),
                           ("telemetry", "samples"),
                           ("telemetry", "sample_interval")):
            report = json.loads(json.dumps(broken))
            report["telemetry"].update(sample_interval=1e-5, samples=1)
            assert validate_report(report) == []
            (report if where == "report" else report["telemetry"])[key] = True
            assert any(key in p for p in validate_report(report)), key

    def test_validate_accepts_only_the_current_version(self):
        report = {
            "schema": "repro.obs.run-report",
            "schema_version": REPORT_SCHEMA_VERSION,
            "seed": 1, "elapsed": 1.0, "total_walks": 1, "hops": 1,
            "traffic": {}, "counters": {},
        }
        assert validate_report(report) == []
        for version in (1, REPORT_SCHEMA_VERSION - 1, REPORT_SCHEMA_VERSION + 1):
            report["schema_version"] = version
            assert any("schema_version" in p for p in validate_report(report))

    def test_diff_names_telemetry_section(self, mx_graph, mx_config):
        base = FlashWalker(mx_graph, mx_config, seed=3).run(num_walks=200)
        metered = FlashWalker(
            mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
        ).run(num_walks=200)
        from repro.obs.report import diff_reports

        changes = diff_reports(base.to_report(), metered.to_report())
        assert changes == {
            "telemetry": {"a": None, "b": "present", "rel": None}
        }

    def test_cli_validate_accepts_v5_report(self, mx_graph, mx_config,
                                            tmp_path, capsys):
        res = FlashWalker(
            mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
        ).run(num_walks=200)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(res.to_report()))
        assert obs_main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"schema v{REPORT_SCHEMA_VERSION}" in out and "telemetry" in out

    def test_cli_alerts_reads_report(self, mx_graph, mx_config, tmp_path,
                                     capsys):
        res = FlashWalker(
            mx_graph, mx_config, seed=3, telemetry=MetricsConfig()
        ).run(num_walks=200)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(res.to_report()))
        assert obs_main(["alerts", "--report", str(path)]) == 0
        capsys.readouterr()


# -- service integration -----------------------------------------------------


class TestServiceTelemetry:
    def _run(self, mx_graph, *, telemetry):
        from repro.service import (
            QueryRequest,
            ServiceConfig,
            WalkQueryService,
        )

        cfg = FlashWalkerConfig().replace(
            partition_subgraphs=4, board_hot_subgraphs=1,
            channel_hot_subgraphs=0,
        )
        fw = FlashWalker(
            mx_graph, cfg, seed=9,
            telemetry=MetricsConfig() if telemetry else None,
        )
        svc = WalkQueryService(
            fw,
            ServiceConfig(
                queue_capacity=1, admission_policy="reject",
                max_inflight_walks=8,
            ),
        )
        reqs = [
            QueryRequest(query_id=i, arrival=0.0, num_walks=16, length=6,
                         deadline=50e-3)
            for i in range(8)
        ]
        return svc.run(reqs)

    def test_overload_fires_shed_burn_alert(self, mx_graph):
        outcome = self._run(mx_graph, telemetry=True)
        tel = outcome.result.to_report()["telemetry"]
        names = {s["name"] for s in tel["series"]}
        assert {"service_arrivals", "service_responses", "service_shed",
                "service_queue_depth"} <= names
        rules = {f["rule"] for f in tel["alerts"]["firings"]}
        assert "service-shed-burn" in rules
        burn = [f for f in tel["alerts"]["firings"]
                if f["rule"] == "service-shed-burn"]
        assert burn[0]["kind"] == "burn_rate" and burn[0]["value"] >= 1.0

    def test_telemetry_leaves_service_outcomes_unchanged(self, mx_graph):
        plain = self._run(mx_graph, telemetry=False).result.to_report()
        metered = self._run(mx_graph, telemetry=True).result.to_report()
        assert plain["service"] == metered["service"]
        assert plain["counters"] == metered["counters"]
        assert "telemetry" not in plain and "telemetry" in metered


# -- cluster integration -----------------------------------------------------


@pytest.fixture(scope="module")
def cluster_graph():
    return rmat(9, 8, RngRegistry(55).fresh("g"))


def _run_cluster(graph, *, jobs):
    from repro.cluster import ClusterConfig, ClusterService
    from repro.common import DurabilityConfig
    from repro.service.request import QueryRequest

    shard = FlashWalkerConfig(
        partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0,
        durability=DurabilityConfig(enabled=True, journal_interval=25e-6),
    )
    ccfg = ClusterConfig(
        n_shards=4, segment_hops=2, max_walk_length=6,
        link_loss_prob=0.05, link_corrupt_prob=0.02,
        kill_schedule=((40e-6, 1),),
        queue_capacity=1, admission_policy="reject",
        max_inflight_walks_per_shard=8,
        telemetry_enabled=True,
    )
    reqs = [
        QueryRequest(query_id=i, arrival=i * 10e-6, num_walks=8, length=6,
                     deadline=50e-3)
        for i in range(8)
    ]
    svc = ClusterService(graph, shard, ccfg, seed=7, jobs=jobs)
    return svc.run(reqs)


class TestClusterTelemetry:
    def test_failover_run_alerts_and_pool_identity(self, cluster_graph):
        serial = _run_cluster(cluster_graph, jobs=1)
        pooled = _run_cluster(cluster_graph, jobs=4)

        tel = serial.report["cluster"]["telemetry"]
        names = {s["name"] for s in tel["series"]}
        assert {"cluster_arrivals", "cluster_responses", "cluster_failovers",
                "cluster_link_messages", "cluster_walks_inflight"} <= names
        firings = tel["alerts"]["firings"]
        rules = {f["rule"] for f in firings}
        # The injected kill shows up as a failover alert, and the
        # overloaded queue burns the shed SLO budget.
        assert "cluster-failover" in rules
        assert any(f["kind"] == "burn_rate" for f in firings)
        rto = [s for s in tel["series"]
               if s["name"] == "cluster_failover_rto_seconds"]
        assert rto and rto[0]["count"] == 1
        assert rto[0]["labels"] == {"shard": "1"}

        # Same seed, serial vs process pool: every telemetry series and
        # firing is byte-identical, shard engines included.
        def canon(report):
            slim = {k: v for k, v in report.items() if k != "jobs"}
            return json.dumps(slim, sort_keys=True)

        assert canon(serial.report) == canon(pooled.report)

    def test_shard_reports_carry_engine_telemetry(self, cluster_graph):
        out = _run_cluster(cluster_graph, jobs=1)
        for shard_report in out.report["shards"]:
            tel = shard_report["telemetry"]
            assert tel["schema"] == "repro.obs.metrics"
            names = {s["name"] for s in tel["series"]}
            assert "engine_walks_completed" in names
