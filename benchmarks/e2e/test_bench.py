"""Tests of the end-to-end benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Workloads run at tiny sizes here; the benchmark runs them at scale 1.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import run
from hostspeed import HostSpeed
from layers import ROOT, LayerTimers, Site, layer_sites
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Scale per workload: small enough for seconds, large enough that every
#: correctness check (three fired kills included) still holds.
TINY = {
    "batch-skewed": 0.004,
    "batch-flash": 0.025,
    "serve-openloop": 0.1,
    "cluster-failover": 0.2,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timers_and_sampler_are_passive(name):
    wl = WORKLOADS[name]
    inputs = wl.prepare(3, TINY[name])
    plain = wl.repeat(inputs, None)
    with HostSpeed() as host:
        timers = LayerTimers(layer_sites(), host.clock)
        traced = wl.repeat(inputs, timers, host.clock)
    assert plain.checks == [] and traced.checks == []
    assert traced.digest == plain.digest
    assert timers.layers()["sim"]["calls"] > 0
    # Every original is back after the traced repetition.
    for site in layer_sites():
        assert not hasattr(site.owner.__dict__[site.attr], "__wrapped__")


def test_host_speed_sampler():
    before = signal.getsignal(signal.SIGALRM)
    host = HostSpeed()
    assert host.speed() == 1.0
    with host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert host.samples > 5 and host.speed() > 0
    # The clock leaves out the sampler's own seconds, which include the
    # kernel's.
    assert host.spent >= host.ref_s > 0
    assert time.perf_counter() - host.clock() == pytest.approx(host.spent, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_cluster_layers_absent_outside_the_cluster():
    timers = LayerTimers(layer_sites())
    wl = WORKLOADS["batch-skewed"]
    wl.repeat(wl.prepare(3, TINY["batch-skewed"]), timers)
    layers = timers.layers()
    assert not any(k.startswith("cluster.") for k in layers)
    assert layers["core.advance"]["calls"] > 0


class _Fake:
    """Nested calls under a hand-stepped clock."""

    now = [0.0]

    def outer(self):
        self.now[0] += 1.0
        self.inner()
        self.now[0] += 2.0
        self.inner()
        self.leaf()
        return "done"

    def inner(self):
        self.now[0] += 3.0
        self.inner_same_layer()

    def inner_same_layer(self):
        self.now[0] += 0.5

    def leaf(self):
        self.now[0] += 4.0
        if getattr(self, "fail", False):
            raise ValueError("leaf failed")

    def tick(self):
        pass


def _fake_timers():
    _Fake.now[0] = 0.0
    return LayerTimers(
        [
            Site("outer", _Fake, "outer"),
            Site("inner", _Fake, "inner", tallies=(("inner.calls_seen", lambda a, r: 1),)),
            Site("inner", _Fake, "inner_same_layer"),
            Site("leaf", _Fake, "leaf"),
            Site("leaf", _Fake, "tick", timed=False),
        ],
        clock=lambda: _Fake.now[0],
    )


def test_self_time_arithmetic():
    timers = _fake_timers()
    with timers:
        assert _Fake().outer() == "done"
        _Fake().tick()
    layers = timers.layers()
    # outer: 1 + 2*(3 + 0.5) + 2 + 4 = 14 inclusive; children cover 11.
    assert layers["outer"] == {"calls": 1, "self_s": 3.0, "incl_s": 14.0}
    # inner_same_layer nests inside inner: counted in calls and self
    # time, not twice in the layer's inclusive time.
    assert layers["inner"] == {"calls": 4, "self_s": 7.0, "incl_s": 7.0}
    assert layers["leaf"] == {"calls": 1, "self_s": 4.0, "incl_s": 4.0}
    assert timers.calls("_Fake.tick") == 1
    assert timers.counts == {"inner.calls_seen": 2}
    assert timers.covered_s == 14.0
    edges = {(e["parent"], e["child"]): (e["calls"], e["incl_s"]) for e in timers.edges()}
    assert edges == {
        (ROOT, "outer"): (1, 14.0),
        ("outer", "inner"): (2, 7.0),
        ("inner", "inner"): (2, 1.0),
        ("outer", "leaf"): (1, 4.0),
    }
    assert not hasattr(_Fake.__dict__["outer"], "__wrapped__")


def test_span_stack_unwinds_on_exceptions():
    timers = _fake_timers()
    fake = _Fake()
    fake.fail = True
    with timers, pytest.raises(ValueError):
        fake.outer()
    assert timers.stack == [[ROOT, 14.0]]
    assert timers.layers()["outer"]["self_s"] == 3.0


def _metrics_of(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_every_benchmark_metric_is_emitted_with_its_unit():
    reps, traced, timers = run.measure("serve-openloop", 3, True, TINY["serve-openloop"])
    assert len(reps) == run.REPS and traced.digest == reps[0].digest
    e2e = run.e2e_metrics(reps)
    layers = run.layer_metrics(timers, traced, reps)
    assert {k: m["unit"] for k, m in e2e.items()} == _metrics_of("end_to_end")
    assert {k: m["unit"] for k, m in layers.items()} == _metrics_of("per_layer")
    assert all(m["value"] > 0 for m in e2e.values())
    assert layers["service.calls"]["value"] > 0
    assert layers["service.latency_samples"]["value"] == 30


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    # Caps: hops_per_s may not go above 15%, peak RSS and the makespan 10%.
    assert 0 < bounds["hops_per_s"] <= 0.15
    assert 0 < bounds["peak_rss_mb"] <= 0.1
    assert 0 < bounds["sim_elapsed_s"] <= 0.1
    assert len(SPEC["per_layer"]) <= 128


def test_cli_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch-skewed",
         "--seed", "11", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_metrics_of("end_to_end"))


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "batch-skewed",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- compare.py rules on synthetic pairs ----------------------------------------

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_claim_wins_only_with_nine_of_ten_and_a_gap_beyond_the_iqr():
    assert compare.claim_verdict(PARENT, [v * 1.2 for v in PARENT], "higher") == ("win", 10, 10)
    eight = [v * 1.2 for v in PARENT[:8]] + PARENT[8:]
    assert compare.claim_verdict(PARENT, eight, "higher")[:2] == ("not met", 8)
    # Better in every pair, but by less than the parent's own IQR.
    slight = [v + 0.5 for v in PARENT]
    assert compare.claim_verdict(PARENT, slight, "higher")[0] == "not met"
    assert compare.claim_verdict(PARENT, [v * 0.8 for v in PARENT], "lower")[0] == "win"


def test_bounds_regression_ok_unresolved_better():
    assert compare.bound_verdict(PARENT, [v * 0.85 for v in PARENT], "higher", 0.1) == "REGRESSION"
    assert compare.bound_verdict(PARENT, [v * 0.95 for v in PARENT], "higher", 0.1) == "ok"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.bound_verdict(PARENT, noisy, "higher", 0.1) == "unresolved"
    assert compare.bound_verdict(noisy, [200.0] * 10, "higher", 0.1) == "better"
    assert compare.bound_verdict(PARENT, [v * 1.15 for v in PARENT], "lower", 0.1) == "REGRESSION"
    assert compare.worse_share([10.0], [12.0], "lower") == pytest.approx(0.2)


def _set(hops: float) -> dict:
    metrics = {
        m["name"]: {"value": hops if m["name"] == "hops_per_s" else 1.0, "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return {"seed": 3, "workloads": {w: {"e2e": result} for w in WORKLOADS}}


def _write_sets(directory: Path, hops: list[float]) -> Path:
    directory.mkdir()
    for i, h in enumerate(hops):
        (directory / f"{i:02d}.json").write_text(json.dumps(_set(h)))
    return directory


def test_compare_exit_status(tmp_path, capsys):
    parent = _write_sets(tmp_path / "p", PARENT)
    same = _write_sets(tmp_path / "same", PARENT)
    slower = _write_sets(tmp_path / "slow", [v * 0.7 for v in PARENT])
    faster = _write_sets(tmp_path / "fast", [v * 1.3 for v in PARENT])
    assert compare.main([str(parent), str(same)]) == 0
    assert compare.main([str(parent), str(slower)]) == 1
    claim = ["--claim", "batch-skewed:hops_per_s"]
    assert compare.main([str(parent), str(faster), *claim]) == 0
    assert compare.main([str(parent), str(same), *claim]) == 1
    out = capsys.readouterr().out
    assert "base: parent median" in out and "claim win (10/10 pairs better)" in out
