"""Observability CLI: traces, reports, metrics, alerts, validation.

::

    python -m repro.obs.cli export-trace --dataset TT --walks 2000 --out trace.json
    python -m repro.obs.cli report --dataset TT --walks 2000 --out report.json
    python -m repro.obs.cli metrics --dataset TT --format openmetrics
    python -m repro.obs.cli alerts --report report.json --fail-on-fire
    python -m repro.obs.cli diff report_a.json report_b.json
    python -m repro.obs.cli validate trace.json

``export-trace`` and ``report`` run the quickstart workload (scaled
dataset, unbiased walks) with tracing enabled and write the artifact;
``metrics`` runs it with the deterministic metrics registry enabled and
exports the series (OpenMetrics text or JSON); ``alerts`` prints the
alert-rule firings of a fresh run or of a saved metered report; ``diff``
compares two reports counter-by-counter and names the sections that
differ; ``validate`` checks a trace file against the Chrome trace-event
structure or a run report against the report schema (the CI smoke job).
"""

from __future__ import annotations

import argparse
import json
import sys

from .report import REPORT_SCHEMA, diff_reports, validate_report
from .tracer import ALL_CATEGORIES, TraceConfig, validate_trace

__all__ = ["main"]


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="TT", help="scaled dataset name (default: TT)")
    p.add_argument("--walks", type=int, default=None,
                   help="number of walks (default: dataset's scaled default)")
    p.add_argument("--length", type=int, default=6, help="walk length (default: 6)")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--exercise-hierarchy", action="store_true",
                   help="shrink hot caches/partitions so all three accelerator "
                        "levels appear in the trace even on small graphs")


def _traced_run(args, categories: frozenset[str] | None):
    """Run one FlashWalker campaign with tracing on; returns the result."""
    # Imported lazily: the CLI must stay usable (diff/validate) even in
    # stripped environments, and repro.core pulls in numpy-heavy modules.
    from ..experiments.harness import WALK_LENGTH, ExperimentContext
    from ..core.flashwalker import FlashWalker
    from ..walks.spec import WalkSpec

    ctx = ExperimentContext(seed=args.seed)
    graph = ctx.graph(args.dataset)
    overrides = {}
    if args.exercise_hierarchy:
        overrides = dict(
            partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=1
        )
    cfg = ctx.flashwalker_config(args.dataset, **overrides)
    trace = TraceConfig(categories=categories)
    fw = FlashWalker(graph, cfg, seed=args.seed, trace=trace)
    n_walks = args.walks or ctx.default_walks(args.dataset)
    spec = WalkSpec(length=args.length if args.length else WALK_LENGTH)
    return fw.run(num_walks=n_walks, spec=spec)


def _cmd_export_trace(args) -> int:
    categories = frozenset(args.categories) if args.categories else None
    result = _traced_run(args, categories)
    n = result.trace.export_chrome(args.out)
    counts = ", ".join(
        f"{cat}={n}" for cat, n in sorted(result.trace.span_counts().items())
    )
    print(f"wrote {args.out}: {n} trace events ({counts})")
    if result.trace.dropped:
        print(f"warning: {result.trace.dropped} events dropped (max_events cap)",
              file=sys.stderr)
    print("open in https://ui.perfetto.dev (Open trace file)")
    return 0


def _cmd_report(args) -> int:
    result = _traced_run(args, None)
    report = result.to_report()
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"wrote {args.out} (schema v{report['schema_version']})")
    else:
        print(text)
    return 0


def _metered_run(args):
    """Run one FlashWalker campaign with telemetry on; returns (result, fw)."""
    from ..experiments.harness import WALK_LENGTH, ExperimentContext
    from ..core.flashwalker import FlashWalker
    from ..walks.spec import WalkSpec
    from .metrics import MetricsConfig

    ctx = ExperimentContext(seed=args.seed)
    graph = ctx.graph(args.dataset)
    overrides = {}
    if args.exercise_hierarchy:
        overrides = dict(
            partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=1
        )
    cfg = ctx.flashwalker_config(args.dataset, **overrides)
    mcfg = MetricsConfig(sample_interval=args.interval)
    fw = FlashWalker(graph, cfg, seed=args.seed, telemetry=mcfg)
    n_walks = args.walks or ctx.default_walks(args.dataset)
    spec = WalkSpec(length=args.length if args.length else WALK_LENGTH)
    result = fw.run(num_walks=n_walks, spec=spec)
    return result, fw


def _cmd_metrics(args) -> int:
    result, fw = _metered_run(args)
    if args.format == "openmetrics":
        text = fw.telemetry.to_openmetrics()
    else:
        text = json.dumps(fw.telemetry.to_json(), indent=2, sort_keys=False)
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        tel = result.telemetry
        print(
            f"wrote {args.out}: {len(tel['series'])} series x "
            f"{tel['samples']} samples ({args.format})"
        )
    else:
        sys.stdout.write(text)
    return 0


def _print_firings(firings: list) -> None:
    if not firings:
        print("no alert firings")
        return
    width = max(len(f["rule"]) for f in firings)
    for f in firings:
        print(
            f"{f['rule'].ljust(width)}  {f['series']}  "
            f"[{f['t_start']:.6g}s, {f['t_end']:.6g}s)  "
            f"samples={f['samples']} value={f['value']:.4g} "
            f"threshold={f['threshold']:g}"
        )


def _cmd_alerts(args) -> int:
    if args.report:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
        tel = report.get("telemetry")
        if tel is None:
            print(f"{args.report}: no telemetry section (run with metrics "
                  "enabled)", file=sys.stderr)
            return 2
        firings = tel.get("alerts", {}).get("firings", [])
    else:
        result, _ = _metered_run(args)
        firings = result.telemetry["alerts"]["firings"]
    _print_firings(firings)
    if firings and args.fail_on_fire:
        return 1
    return 0


def _cmd_diff(args) -> int:
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)
    changes = diff_reports(a, b, rel_tol=args.rel_tol)
    if not changes:
        print("reports are identical (within tolerance)")
        return 0
    width = max(len(k) for k in changes)
    for key, row in changes.items():
        rel = f"{row['rel']:+.2%}" if row["rel"] is not None else ""
        print(f"{key.ljust(width)}  {row['a']!r} -> {row['b']!r}  {rel}")
    # Name the top-level sections involved so a pair differing only in
    # one section (e.g. "telemetry") reads as more than a bare
    # mismatch.
    sections = sorted({key.split(".")[0].split("[")[0] for key in changes})
    print(f"{len(changes)} differences in: {', '.join(sections)}")
    return 1 if args.fail_on_change else 0


def _cmd_validate(args) -> int:
    with open(args.path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            print(f"{args.path}: not valid JSON: {exc}", file=sys.stderr)
            return 1
    # Dispatch on content: a run report names its schema, anything with
    # traceEvents validates as a Chrome trace.
    if isinstance(obj, dict) and obj.get("schema") == REPORT_SCHEMA:
        problems = validate_report(obj)
        if problems:
            for p in problems:
                print(f"{args.path}: {p}", file=sys.stderr)
            return 1
        version = obj.get("schema_version")
        suffix = " + telemetry" if "telemetry" in obj else ""
        print(f"{args.path}: valid run report (schema v{version}{suffix})")
        return 0
    problems = validate_trace(obj)
    if problems:
        for p in problems:
            print(f"{args.path}: {p}", file=sys.stderr)
        return 1
    n = len(obj.get("traceEvents", []))
    print(f"{args.path}: valid Chrome trace-event JSON ({n} events)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.cli", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export-trace", help="run a campaign and write a Perfetto trace")
    _add_run_args(p)
    p.add_argument("--out", default="trace.json", help="output path (default: trace.json)")
    p.add_argument("--categories", nargs="*", choices=sorted(ALL_CATEGORIES),
                   help="restrict recorded span categories (default: all)")
    p.set_defaults(fn=_cmd_export_trace)

    p = sub.add_parser("report", help="run a campaign and dump its structured report")
    _add_run_args(p)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("metrics", help="run a campaign with telemetry and "
                                       "export the metric series")
    _add_run_args(p)
    p.add_argument("--format", choices=("openmetrics", "json"),
                   default="openmetrics",
                   help="export format (default: openmetrics)")
    p.add_argument("--interval", type=float, default=20e-6,
                   help="sample interval in simulated seconds (default: 20e-6)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("alerts", help="print alert-rule firings (fresh run, "
                                      "or a saved metered report)")
    _add_run_args(p)
    p.add_argument("--report", default=None,
                   help="read firings from this run-report JSON instead of "
                        "running a campaign")
    p.add_argument("--interval", type=float, default=20e-6,
                   help="sample interval in simulated seconds (default: 20e-6)")
    p.add_argument("--fail-on-fire", action="store_true",
                   help="exit 1 when any alert fired")
    p.set_defaults(fn=_cmd_alerts)

    p = sub.add_parser("diff", help="compare two run reports")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rel-tol", type=float, default=0.0,
                   help="suppress relative changes <= this fraction")
    p.add_argument("--fail-on-change", action="store_true",
                   help="exit 1 when the reports differ")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("validate", help="validate a Chrome trace-event JSON file")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
