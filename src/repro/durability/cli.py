"""Durability CLI: seeded kill-and-restart crash campaigns.

::

    python -m repro.durability --quick --seed 3 --crash-points 7 --configs 4
    python -m repro.durability --crash-points 10 --out durability_report.json

Runs each selected configuration's workload once uninterrupted, then
crashes it at ``--crash-points`` seeded times and recovers each crash,
checking the recovered run's report is identical to the uninterrupted
baseline outside the documented ``durability`` section.  Exit status:
0 when every point reproduced the baseline, 1 on any identity failure,
2 when recovery itself found corrupted state (journal verification or
auditor violations) — which is what the CI crash-loop soak job gates
on.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.durability",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=3,
                        help="campaign seed (crash-time draws; default: 3)")
    parser.add_argument("--crash-points", type=int, default=7,
                        help="seeded crash points per configuration "
                             "(default: 7)")
    parser.add_argument("--configs", type=int, default=4,
                        help="how many standard configurations to run "
                             "(default: all 4)")
    parser.add_argument("--quick", action="store_true",
                        help="scale the workload down (CI-sized run)")
    parser.add_argument("--out", default=None,
                        help="write the campaign report JSON here")
    args = parser.parse_args(argv)

    # Imports deferred so --help works in stripped environments.
    from ..common.errors import InvariantViolation
    from .harness import run_crash_campaign, standard_campaigns

    pool = standard_campaigns(quick=args.quick)[: max(1, args.configs)]
    campaigns = []
    try:
        for spec in pool:
            campaigns.append(
                run_crash_campaign(
                    spec["make_engine"],
                    spec["run_workload"],
                    crash_points=args.crash_points,
                    seed=args.seed,
                    name=spec["name"],
                )
            )
            s = campaigns[-1].summary()
            print(
                f"{s['name']}: {s['points']} crash points "
                f"({s['modes']}) -> {s['identical']} identical, "
                f"rpo_max={s['rpo_walks_max']} walks, "
                f"rto_max={s['rto_time_max'] * 1e3:.3f}ms "
                f"[{'OK' if s['ok'] else 'FAIL'}]"
            )
    except InvariantViolation as e:
        print(f"recovery found corrupted state: {e}", file=sys.stderr)
        for v in getattr(e, "violations", []) or []:
            print(f"  - {v}", file=sys.stderr)
        return 2

    ok = all(c.ok for c in campaigns)
    if args.out:
        payload = {
            "seed": args.seed,
            "crash_points": args.crash_points,
            "quick": args.quick,
            "ok": ok,
            "campaigns": [c.to_dict() for c in campaigns],
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote report to {args.out}")
    if not ok:
        for c in campaigns:
            for p in c.points:
                if not p.identical:
                    print(
                        f"IDENTITY FAIL {c.name} point {p.index} "
                        f"(t={p.t_crash:.6g}, {p.mode}): {p.diff}",
                        file=sys.stderr,
                    )
        return 1
    total = sum(len(c.points) for c in campaigns)
    print(f"all {total} crash points across {len(campaigns)} "
          f"configuration(s) reproduced their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
