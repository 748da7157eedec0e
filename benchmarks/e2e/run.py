"""End-to-end benchmark of the FlashWalker reproduction.

One workload::

    python3 benchmarks/e2e/run.py --workload batch-skewed --seed 3 --seconds 20 --trace 0

runs ``REPS`` untimed repetitions of the workload, each on a freshly
built system, checks the simulated outputs, prints every end-to-end
metric, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 1`` one more repetition runs
with the layer timers installed, and the JSON carries the per-layer
metrics instead; the layer totals and the parent -> child edge table
go to ``results/<workload>.trace.json``.

The repetition count is fixed, so every host and commit measures the
same work; ``--seconds`` is the run length the workloads were sized
for (``run_seconds`` in BENCHMARK.json) and does not change it.

Host seconds are reported as *reference-host seconds*: each repetition
runs under :class:`hostspeed.HostSpeed`, which times a fixed kernel
every 10 ms, and its measured seconds are multiplied by the host speed
the kernel saw (see ``hostspeed.py``).  This takes out the slow-down
that other tenants of a shared host cause.

Without ``--workload`` it runs every workload, untraced then traced,
each in a fresh subprocess, and prints all metrics::

    python3 benchmarks/e2e/run.py --seed 3 [--out set.json]

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
EXPECTED_DIGESTS = HERE / "expected_digests.json"
DIGEST_SEEDS = (3, 11)
#: Untimed repetitions per run.  Each workload is sized so that these
#: take about DEFAULT_SECONDS on a 2-vCPU Xeon at 2.1 GHz running at
#: half its reference speed.
REPS = 3
DEFAULT_SECONDS = 20

#: Timed layers, in report order; each reports ``.calls`` and ``.self_s``.
TIMED_LAYERS = (
    "sim", "core.advance", "walks", "core.query_cache", "core.board_accel",
    "core.dense", "core.scheduler", "core.buffers", "flash", "durability",
    "faults.checkpoint", "service", "cluster.router", "cluster.shard",
    "cluster.pool", "cluster.placement", "cluster.link", "cluster.audit",
    "cluster.health",
)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it.

    Exits nonzero when the program is missing or would come from
    anywhere but this checkout.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import repro from {src}: {exc}")
    where = Path(repro.__file__).resolve().parent
    if where != src.resolve() / "repro":
        raise SystemExit(f"run.py: repro imported from {where}, not from {src}")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def e2e_metrics(reps) -> dict:
    """Host metrics of the ``REPS`` untimed repetitions.

    ``hops_per_s`` and ``setup_s`` are medians over the repetitions, in
    reference-host seconds.

    ``peak_rss_mb`` is the process's peak RSS after the first
    repetition: that of a process that runs the workload once.  Later
    repetitions build on an allocator that keeps the earlier ones'
    freed memory, so the peak grows (by about 100 MB for the cluster at
    the second).
    """
    return {
        "hops_per_s": _metric(statistics.median(o.hops / o.ref_run_s for o in reps), "hops/s"),
        "setup_s": _metric(statistics.median(o.ref_setup_s for o in reps), "s"),
        "peak_rss_mb": _metric(reps[0].peak_rss_mb, "MB"),
        "sim_elapsed_s": _metric(reps[0].sim_elapsed, "sim_s"),
    }


def layer_metrics(timers, traced, untimed: list) -> dict:
    """Per-layer metrics of the one traced repetition.

    Host seconds and calls come from the timers; work counts either from
    tallies at the same wrapped boundaries or, where the program keeps
    them, from its simulated counters (``Outcome.sim``).  Seconds are
    reference-host seconds, scaled by the traced repetition's host speed.
    ``trace.overhead`` is the traced run time over the untimed median,
    minus 1.
    """
    layers = timers.layers()
    counts = timers.counts
    sim = traced.sim
    latencies = traced.latencies
    untimed_run_s = statistics.median(o.ref_run_s for o in untimed)
    m: dict[str, dict] = {}
    for layer in TIMED_LAYERS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0})
        m[f"{layer}.calls"] = _metric(row["calls"], "count")
        m[f"{layer}.self_s"] = _metric(row["self_s"] * traced.speed, "s")
    events = timers.calls("Simulator.step")
    busy_units = sim["engine_seconds"]
    hits, misses = counts["core.query_cache.hits"], counts["core.query_cache.misses"]
    cmt_hits, cmt_misses = sim["ftl_cmt_hits"], sim["ftl_cmt_misses"]
    epochs = sim.get("epochs", 0)
    m.update({
        "sim.events": _metric(events, "count"),
        "sim.us_per_event": _metric(_ratio(untimed_run_s * 1e6, events), "us"),
        "core.advance.walks": _metric(counts["core.advance.walks"], "count"),
        "walks.sampling.vertices": _metric(counts["walks.sampling.vertices"], "count"),
        "walks.state.constructions": _metric(timers.calls("WalkSet.__init__"), "count"),
        "core.query_cache.probes": _metric(counts["core.query_cache.probes"], "count"),
        "core.query_cache.hits": _metric(hits, "count"),
        "core.query_cache.misses": _metric(misses, "count"),
        "core.query_cache.hit_ratio": _metric(_ratio(hits, hits + misses), "ratio"),
        "core.board_accel.busy_frac": _metric(
            _ratio(sim["board_accel_busy_time"], busy_units), "fraction"
        ),
        "core.dense.pre_walks": _metric(counts["core.dense.pre_walks"], "count"),
        "core.scheduler.subgraph_loads": _metric(sim["subgraph_loads"], "count"),
        "core.chip_accel.busy_frac": _metric(
            _ratio(sim["chip_busy_time"], busy_units * sim["chips"]), "fraction"
        ),
        "core.chip_accel.roving_walks": _metric(sim["roving_walks"], "count"),
        "core.channel_accel.busy_frac": _metric(
            _ratio(sim["channel_accel_busy_time"], busy_units * sim["channels"]),
            "fraction",
        ),
        "flash.read_bytes": _metric(sim["flash_read_bytes"], "B"),
        "flash.write_bytes": _metric(sim["flash_write_bytes"], "B"),
        "flash.channel_bytes": _metric(sim["channel_bytes"], "B"),
        "flash.cmt_hits": _metric(cmt_hits, "count"),
        "flash.cmt_misses": _metric(cmt_misses, "count"),
        "flash.cmt_hit_ratio": _metric(_ratio(cmt_hits, cmt_hits + cmt_misses), "ratio"),
        "service.inject.walks": _metric(counts["service.inject.walks"], "count"),
        "service.shed": _metric(sim.get("shed", 0), "count"),
        "service.deferrals": _metric(sim.get("deferrals", 0), "count"),
        "service.latency_p50_s": _metric(_percentile(latencies, 50), "sim_s"),
        "service.latency_p90_s": _metric(_percentile(latencies, 90), "sim_s"),
        "service.latency_samples": _metric(len(latencies), "count"),
        "cluster.router.self_s_per_epoch": _metric(
            _ratio(m["cluster.router.self_s"]["value"], epochs), "s"
        ),
        "cluster.epochs": _metric(epochs, "count"),
        "cluster.walks_admitted": _metric(sim.get("walks_admitted", 0), "count"),
        "cluster.migrations": _metric(sim.get("migrations", 0), "count"),
        "cluster.link.retransmits": _metric(sim.get("retransmits", 0), "count"),
        "trace.overhead": _metric(traced.ref_run_s / untimed_run_s - 1.0, "fraction"),
    })
    return m


def load_expected() -> dict:
    if not EXPECTED_DIGESTS.exists():
        return {}
    with open(EXPECTED_DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def problems(workload: str, seed: int, reps: list, traced) -> list[str]:
    """Failed checks: per-repetition checks and digest agreement."""
    out = []
    labelled = [(f"rep {i}", o) for i, o in enumerate(reps)]
    if traced is not None:
        labelled.append(("traced rep", traced))
    for label, o in labelled:
        out += [f"{label}: {c}" for c in o.checks]
        if o.digest != reps[0].digest:
            out.append(f"{label}: sim_digest {o.digest[:12]} != rep 0 {reps[0].digest[:12]}")
    want = load_expected().get(workload, {}).get(str(seed))
    if want is not None and reps[0].digest != want:
        out.append(f"sim_digest {reps[0].digest[:12]} != expected {want[:12]} for seed {seed}")
    return out


def measure(workload: str, seed: int, trace: bool, scale: float = 1.0):
    """``REPS`` untimed repetitions, then with ``trace`` one traced one.

    Returns ``(untimed outcomes, traced outcome or None, timers or None)``.
    """
    from hostspeed import HostSpeed
    from layers import LayerTimers, layer_sites
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inputs = wl.prepare(seed, scale)

    def repeat(traced: bool):
        gc.collect()
        with HostSpeed() as host:
            timers = LayerTimers(layer_sites(), host.clock) if traced else None
            outcome = wl.repeat(inputs, timers, host.clock)
        outcome.speed = host.speed()
        outcome.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return outcome, timers

    reps = [repeat(False)[0] for _ in range(REPS)]
    if not trace:
        return reps, None, None
    return (reps, *repeat(True))


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def run_one(args) -> int:
    t0 = time.perf_counter()
    reps, traced, timers = measure(args.workload, args.seed, bool(args.trace))
    measured_s = time.perf_counter() - t0
    bad = problems(args.workload, args.seed, reps, traced)
    outcomes = reps + ([traced] if traced is not None else [])
    attempted = sum(o.operations for o in outcomes)
    failed = attempted if bad else sum(o.failed for o in outcomes)
    if timers is None:
        metrics = e2e_metrics(reps)
        values = {
            "hops_per_s": [o.hops / o.ref_run_s for o in reps],
            "setup_s": [o.ref_setup_s for o in reps],
            "host_speed": [o.speed for o in reps],
            "host_hops_per_s": [o.hops / o.run_s for o in reps],
        }
        write_json(RESULTS / f"{args.workload}.run.json", {
            "workload": args.workload, "seed": args.seed, "reps": len(reps),
            "digest": reps[0].digest, "problems": bad, "values": values,
            "spread": {k: spread(v) for k, v in values.items()},
        })
    else:
        metrics = layer_metrics(timers, traced, reps)
        write_json(RESULTS / f"{args.workload}.trace.json", {
            "workload": args.workload,
            "seed": args.seed,
            "digest": traced.digest,
            "untimed_run_s": [o.run_s for o in reps],
            "untimed_speed": [o.speed for o in reps],
            "traced_run_s": traced.run_s,
            "traced_speed": traced.speed,
            "overhead": metrics["trace.overhead"]["value"],
            "covered_s": timers.covered_s,
            "layers": timers.layers(),
            "functions": {
                key: {"layer": st.site.layer, "timed": st.site.timed,
                      "calls": st.calls, "incl_s": st.incl, "self_s": st.self_s}
                for key, st in sorted(timers.stats.items()) if st.calls
            },
            "edges": timers.edges(),
            "counts": dict(sorted(timers.counts.items())),
        })
    print(f"# {args.workload} seed={args.seed} reps={len(reps)} traced={int(traced is not None)} "
          f"digest={reps[0].digest[:16]} measured {measured_s:.1f} s "
          f"(sized for {args.seconds:g} s untraced)")
    print("# host speed " + " ".join(f"{o.speed:.3f}" for o in outcomes)
          + "; host-second rates " + " ".join(f"{o.hops / o.run_s:.6g}" for o in outcomes)
          + " hops/s")
    for line in bad:
        print(f"# FAILED CHECK: {line}")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 1 if bad else 0


def host_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_all(args) -> int:
    """Every workload in a fresh subprocess, untraced then traced."""
    from workloads import WORKLOADS

    record = {"seed": args.seed, "seconds": args.seconds, "host": host_info(),
              "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = record["workloads"][name] = {}
        run_file = RESULTS / f"{name}.run.json"
        run_file.unlink(missing_ok=True)
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines or not lines[-1].startswith("{"):
                continue
            result = json.loads(lines[-1])
            entry["layers" if trace else "e2e"] = result
            if not result["correct"]:
                status = 1
        if run_file.exists():
            with open(run_file, encoding="utf-8") as f:
                detail = json.load(f)
            entry["reps"] = detail["reps"]
            entry["spread"] = detail["spread"]
            entry["digest"] = detail["digest"]
    if args.out:
        write_json(Path(args.out), record)
    return status


def regenerate_digests() -> int:
    """Rewrite ``expected_digests.json`` from one repetition per
    workload and held seed; only a benchmark-only change may do this."""
    from workloads import WORKLOADS

    digests = {}
    for name, wl in WORKLOADS.items():
        digests[name] = {}
        for seed in DIGEST_SEEDS:
            outcome = wl.repeat(wl.prepare(seed), None)
            if outcome.checks:
                print(f"{name} seed {seed}: {outcome.checks}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = outcome.digest
            print(f"{name} seed {seed}: {outcome.digest}")
    write_json(EXPECTED_DIGESTS, digests)
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload (default: all, in subprocesses)")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="run length the workloads were sized for; reported only, "
                        f"the run always makes {REPS} repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="all workloads: write the set's results to this JSON file")
    p.add_argument("--regenerate-digests", action="store_true",
                   help=f"rewrite expected_digests.json for seeds {DIGEST_SEEDS}")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.regenerate_digests:
        return regenerate_digests()
    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
