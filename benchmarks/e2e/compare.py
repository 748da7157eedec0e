"""Compare two commits' benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC ...]

Each directory holds set files written by ``run.py --out`` (one file
per set of all workloads).  The i-th parent set is paired with the
i-th change set in file-name order, so run the two sides alternately,
at least ten pairs.

For every workload and end-to-end metric it prints each side's median,
quartiles and sample count, and a verdict:

* a claimed metric is a **win** only if the change is better in at
  least 9 of 10 pairs (ties count for neither side) and the medians
  differ by more than the parent's interquartile range;
* every other metric is a **regression** when the change's median is
  worse than the parent's by more than the bound in ``BENCHMARK.json``,
  **unresolved** when either side's spread (IQR over median) exceeds
  that bound, unless every change run beats every parent run
  (**better**), and **ok** otherwise.

Every ratio is printed with its base.  Exit status 1 means a
regression, a failed correctness check, or a claim not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def is_better(a: float, b: float, better: str) -> bool:
    """True when ``a`` reads better than ``b``."""
    return a > b if better == "higher" else a < b


def worse_share(parent: list[float], change: list[float], better: str) -> float:
    """How much worse the change's median is, as a share of the parent's
    (negative when it is better)."""
    p, c = statistics.median(parent), statistics.median(change)
    if not p:
        return 0.0
    return (p - c) / p if better == "higher" else (c - p) / p


def claim_verdict(parent: list[float], change: list[float], better: str) -> tuple[str, int, int]:
    """Win rule on paired runs; returns ``(verdict, wins, pairs)``."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    won = (
        len(pairs) > 0
        and wins >= WIN_SHARE * len(pairs)
        and is_better(med_c, med_p, better)
        and abs(med_c - med_p) > q3 - q1
    )
    return ("win" if won else "not met"), wins, len(pairs)


def bound_verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    if all(is_better(c, p, better) for c in change for p in parent):
        return "better"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    if worse_share(parent, change, better) > bound:
        return "REGRESSION"
    return "ok"


def load_sets(directory: Path) -> list[dict]:
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise SystemExit(f"compare.py: no set files (*.json) in {directory}")
    sets = []
    for path in files:
        with open(path, encoding="utf-8") as f:
            sets.append(json.load(f))
    return sets


def values(sets: list[dict], workload: str, kind: str, metric: str) -> list[float]:
    out = []
    for s in sets:
        result = s["workloads"].get(workload, {}).get(kind)
        if result is not None and metric in result["metrics"]:
            out.append(float(result["metrics"][metric]["value"]))
    return out


def incorrect(sets: list[dict]) -> list[str]:
    return [
        f"{name} ({kind}) in set seed={s['seed']}"
        for s in sets
        for name, entry in s["workloads"].items()
        for kind in ("e2e", "layers")
        if kind in entry and not entry[kind]["correct"]
    ]


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare(parent: list[dict], change: list[dict], spec: dict, claims: set) -> int:
    status = 0
    for side, sets in (("parent", parent), ("change", change)):
        for bad in incorrect(sets):
            print(f"INCORRECT {side}: {bad}")
            status = 1
    pairs = min(len(parent), len(change))
    if pairs < 10:
        print(f"warning: {pairs} pairs; the win rule wants at least 10")
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        print(f"\n== {workload}")
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            p = values(parent, workload, "e2e", name)
            c = values(change, workload, "e2e", name)
            if not p or not c:
                print(f"{name}: missing")
                status = 1
                continue
            base = statistics.median(p)
            ratio = statistics.median(c) / base if base else float("nan")
            if (workload, name) in claims:
                verdict, wins, n = claim_verdict(p, c, better)
                verdict = f"claim {verdict} ({wins}/{n} pairs better)"
                status |= verdict.startswith("claim not")
            else:
                verdict = bound_verdict(p, c, better, m["bound"])
                status |= verdict == "REGRESSION"
            print(f"{name} [{m['unit']}, {better} is better, bound {m['bound']:.0%}]")
            print(f"  parent {_fmt(p)}")
            print(f"  change {_fmt(c)}")
            print(f"  change/parent = {ratio:.4f} (base: parent median {base:.6g} "
                  f"{m['unit']})  -> {verdict}")
        _layer_table(parent, change, workload)
    return status


def _layer_table(parent: list[dict], change: list[dict], workload: str) -> None:
    """Median self time per layer on each side (no verdicts: the
    per-layer numbers say where a change in the end-to-end ones came
    from, they carry no bounds of their own)."""
    rows = []
    names = {
        k for s in parent + change
        for k in s["workloads"].get(workload, {}).get("layers", {}).get("metrics", {})
        if k.endswith(".self_s")
    }
    for name in sorted(names):
        p = values(parent, workload, "layers", name)
        c = values(change, workload, "layers", name)
        if p and c and (statistics.median(p) or statistics.median(c)):
            rows.append((name, statistics.median(p), statistics.median(c)))
    if rows:
        print("  layer self time, median s (parent -> change, ratio over parent):")
        for name, p, c in rows:
            ratio = f"{c / p:.3f}" if p else "n/a"
            print(f"    {name:34s} {p:10.4g} -> {c:10.4g}  x{ratio}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare benchmark sets of two commits.")
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="metric the change claims to improve (win rule applies)")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    claims = set()
    for c in args.claim:
        workload, _, metric = c.partition(":")
        claims.add((workload, metric))
    return compare(load_sets(Path(args.parent_dir)), load_sets(Path(args.change_dir)),
                   spec, claims)


if __name__ == "__main__":
    sys.exit(main())
