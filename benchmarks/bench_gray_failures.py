"""Gray-failure soak: sustained slow faults vs the hedging stack.

Four runs of the canonical scenario (4 shards, open-loop stream, no
kills, clean link) cross {healthy, shard 1 slow-faulted x6} with
{gray layer off, straggler detection + hedged leases + deadline
propagation on}.  Each soak gates on:

- zero online-audit violations in every run — in hedged mode that
  includes the exactly-one-commit-per-hop invariants (every issued
  hedge resolves to exactly one winner, wasted work fully accounted);
- no false positives: the healthy hedged run suspects nobody and
  issues zero hedges;
- hedging + deadline propagation recovering at least half of the p99
  degradation the slow fault causes with the layer off (the PR gate:
  ``d_off >= 2 * d_on``);
- serial and process-pool hedged runs byte-identical outside the
  top-level ``jobs`` field.

Marked ``soak`` so tier-1 (`pytest -q`) skips it; run explicitly with
``pytest -m soak benchmarks/bench_gray_failures.py``.  The session-end
``BENCH_gray_failures.json`` artifact carries per-run latency rows and
hedge wasted-work counters for CI to archive.
"""

import json

import pytest

from repro.cluster.campaign import (
    GRAY_DEFAULTS,
    run_scenario,
    sustained_slow_faults,
)
from repro.experiments.harness import format_table

from conftest import run_once

DATASET = "TT"
N_SHARDS = 4
N_REQUESTS = 24
RATE_QPS = 20e3
SLOW_SHARDS = (1,)
SLOW_FACTOR = 6.0

pytestmark = pytest.mark.soak


def _canonical(report: dict, *, drop: tuple[str, ...] = ()) -> str:
    return json.dumps(
        {k: v for k, v in report.items() if k not in drop}, sort_keys=True
    )


def _soak(ctx, *, slow: bool, gray: bool, jobs: int = 1):
    return run_scenario(
        ctx,
        DATASET,
        n_shards=N_SHARDS,
        n_requests=N_REQUESTS,
        rate_qps=RATE_QPS,
        kills=(),
        loss=0.0,
        corrupt=0.0,
        jobs=jobs,
        slow_shards=SLOW_SHARDS if slow else (),
        slow=sustained_slow_faults(factor=SLOW_FACTOR) if slow else None,
        gray=dict(GRAY_DEFAULTS) if gray else None,
    ).report


def run(ctx, jobs):
    """The 2x2 slow-fault / hedging matrix plus a pooled identity run."""
    matrix = {
        "clean_off": _soak(ctx, slow=False, gray=False),
        "slow_off": _soak(ctx, slow=True, gray=False),
        "clean_on": _soak(ctx, slow=False, gray=True),
        "slow_on": _soak(ctx, slow=True, gray=True),
    }
    pooled = _soak(ctx, slow=True, gray=True, jobs=max(2, jobs))

    rows = []
    for name, rep in matrix.items():
        svc = rep["service"]
        gray_s = rep["cluster"]["gray"]
        hedging = gray_s["hedging"]
        rows.append({
            "run": name,
            "ok": svc["requests"]["ok"],
            "timed_out": svc["requests"]["timed_out"],
            "shed": svc["requests"]["shed"],
            "p50_ms": svc["latency"]["p50"] * 1e3,
            "p99_ms": svc["latency"]["p99"] * 1e3,
            "hedges": hedging["issued"],
            "hedge_waste_rate": hedging["wasted_work_rate"],
            "sacrificed": gray_s["walks_sacrificed"],
            "audit_violations": rep["cluster"]["audit"]["violations"],
        })

    p99 = {k: v["service"]["latency"]["p99"] for k, v in matrix.items()}
    d_off = p99["slow_off"] - p99["clean_off"]
    d_on = p99["slow_on"] - p99["clean_on"]
    clean_gray = matrix["clean_on"]["cluster"]["gray"]
    slow_gray = matrix["slow_on"]["cluster"]["gray"]
    hedging = slow_gray["hedging"]
    gates = {
        "zero_violations": all(
            rep["cluster"]["audit"]["violations"] == 0
            for rep in (*matrix.values(), pooled)
        ),
        "walks_conserved": all(
            rep["service"]["walks"]["created"]
            == rep["service"]["walks"]["done"]
            for rep in matrix.values()
        ),
        "no_false_positives": (
            clean_gray["hedging"]["issued"] == 0
            and not any(clean_gray["stragglers"]["suspect_epochs"])
        ),
        "straggler_detected": slow_gray["stragglers"]["suspect_epochs"][1] > 0,
        # Exactly one commit per hedged hop: every hedge resolves to a
        # single winner and the loser is billed as waste.
        "one_commit_per_hop": (
            hedging["wins_primary"] + hedging["wins_hedge"]
            == hedging["issued"]
            and hedging["wasted_segments"] == hedging["issued"]
        ),
        "wasted_work_reported": hedging["wasted_work_rate"] > 0.0,
        "p99_recovery_2x": d_off > 0 and d_off >= 2.0 * d_on,
        "pool_identity": _canonical(matrix["slow_on"], drop=("jobs",))
        == _canonical(pooled, drop=("jobs",)),
    }
    return {
        "rows": rows,
        "gates": gates,
        "p99_degradation": {"hedging_off": d_off, "hedging_on": d_on},
        "hedging": hedging,
    }


def test_gray_failure_soak(benchmark, ctx, jobs):
    out = run_once(benchmark, run, ctx, jobs)
    benchmark.extra_info["table"] = format_table(out["rows"])
    benchmark.extra_info["gates"] = out["gates"]
    benchmark.extra_info["p99_degradation"] = out["p99_degradation"]
    failed = [name for name, ok in out["gates"].items() if not ok]
    assert not failed, f"gray-failure soak gates failed: {failed}"
