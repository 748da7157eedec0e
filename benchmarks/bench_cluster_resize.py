"""Cluster elasticity soak: live resize chaos at sustained load.

Drives :class:`repro.cluster.ClusterService` through a grow 2 -> 4,
kill-the-new-shard-mid-handoff, shrink 4 -> 3 cycle under a longer
open-loop query stream than the tier-1 tests, over a lossy/corrupting
migration link, in both hash and range placement modes.  Each soak
gates on:

- zero online-audit violations at every barrier of the resize window
  (walk conservation survives prepare/transfer/commit and the kill);
- both resizes committing, with measured resize RTOs;
- zero lost walks (created == done) and zero zombies;
- bit-identical reports between serial and process-pool execution
  with the resize schedule enabled;
- a re-run with the same seed producing a byte-identical report
  (same-seed identity despite live membership changes).

Marked ``soak`` so tier-1 (`pytest -q`) skips it; run explicitly with
``pytest -m soak benchmarks/bench_cluster_resize.py``.  The
session-end ``BENCH_cluster_resize.json`` artifact carries the resize
records, handoff counters, and RPO/RTO stats for CI to archive.
"""

import json

import pytest

from repro.cluster.campaign import run_scenario
from repro.experiments.harness import format_table

from conftest import run_once

DATASET = "TT"
N_SHARDS = 2
N_REQUESTS = 48
RATE_QPS = 30e3
RESIZES = ((50e-6, "grow", 2), (250e-6, "shrink", 0))
#: Kills a grow-minted shard inside the shrink's transfer window
#: (quick-scale windows: ~680-1232 us hash, ~758-1647 us range), so
#: replica promotion and handoff run concurrently.
KILLS = ((7.5e-4, 2),)
LINK_LOSS = 0.08
LINK_CORRUPT = 0.04

pytestmark = pytest.mark.soak


def _canonical(report: dict, *, drop: tuple[str, ...] = ()) -> str:
    return json.dumps(
        {k: v for k, v in report.items() if k not in drop}, sort_keys=True
    )


def _soak(ctx, *, placement: str = "hash", jobs: int = 1):
    return run_scenario(
        ctx,
        DATASET,
        n_shards=N_SHARDS,
        n_requests=N_REQUESTS,
        rate_qps=RATE_QPS,
        kills=KILLS,
        loss=LINK_LOSS,
        corrupt=LINK_CORRUPT,
        jobs=jobs,
        placement=placement,
        resizes=RESIZES,
    ).report


def run(ctx, jobs):
    """Elasticity soak across placements + pooled/seeded re-runs."""
    hash_run = _soak(ctx)
    range_run = _soak(ctx, placement="range")
    pooled = _soak(ctx, jobs=max(2, jobs))
    rerun = _soak(ctx)
    rows = []
    for name, rep in (("hash", hash_run), ("range", range_run),
                      ("pooled", pooled)):
        cluster, svc = rep["cluster"], rep["service"]
        ho = cluster["handoff"]
        rows.append({
            "run": name,
            "ok": svc["requests"]["ok"],
            "walks_done": svc["walks"]["done"],
            "resizes": len(cluster["resizes"]),
            "committed": sum(1 for r in cluster["resizes"]
                             if r.get("committed")),
            "handoff_walks": ho["walks"],
            "deferred": ho["deferred_batches"],
            "rpo_walks": ho["rpo_walks"],
            "resize_rto_max_ms": ho["rto"]["max"] * 1e3,
            "failover_rto_max_ms": cluster["rto"]["max"] * 1e3,
            "audit_violations": cluster["audit"]["violations"],
        })
    gates = {}
    for name, rep in (("hash", hash_run), ("range", range_run)):
        cluster, svc = rep["cluster"], rep["service"]
        gates[f"{name}_zero_violations"] = (
            cluster["audit"]["violations"] == 0
        )
        gates[f"{name}_all_committed"] = (
            len(cluster["resizes"]) == len(RESIZES)
            and all(r.get("committed") for r in cluster["resizes"])
            and not cluster["resizes_unfired"]
        )
        gates[f"{name}_resize_rto_measured"] = (
            cluster["handoff"]["rto"]["count"] == len(RESIZES)
            and cluster["handoff"]["rto"]["max"] > 0.0
        )
        gates[f"{name}_kill_during_handoff"] = (
            sum(r["kills_during"] for r in cluster["resizes"]) >= 1
        )
        gates[f"{name}_walks_conserved"] = (
            svc["walks"]["created"] == svc["walks"]["done"]
            and svc["walks"]["zombie"] == 0
        )
    gates["pool_identity"] = _canonical(hash_run, drop=("jobs",)) == \
        _canonical(pooled, drop=("jobs",))
    gates["same_seed_identity"] = _canonical(hash_run) == _canonical(rerun)
    return {
        "rows": rows,
        "gates": gates,
        "resizes": {"hash": hash_run["cluster"]["resizes"],
                    "range": range_run["cluster"]["resizes"]},
        "handoff": {"hash": hash_run["cluster"]["handoff"],
                    "range": range_run["cluster"]["handoff"]},
        "membership": hash_run["cluster"]["membership"],
    }


def test_cluster_resize_soak(benchmark, ctx, jobs):
    out = run_once(benchmark, run, ctx, jobs)
    benchmark.extra_info["table"] = format_table(out["rows"])
    benchmark.extra_info["gates"] = out["gates"]
    benchmark.extra_info["resize_rto_ms"] = [
        r.get("rto_time", 0.0) * 1e3 for r in out["resizes"]["hash"]
    ]
    failed = [name for name, ok in out["gates"].items() if not ok]
    assert not failed, f"cluster resize soak gates failed: {failed}"
