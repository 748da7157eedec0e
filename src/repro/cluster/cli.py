"""Cluster CLI: one seeded kill-a-shard chaos scenario.

::

    python -m repro.cluster --quick --shards 4 --jobs 4
    python -m repro.cluster --kill 60e-6:1 --kill 140e-6:2 --loss 0.05 \\
        --verify-identity --verify-baseline --out cluster_report.json
    python -m repro.cluster --quick --shards 2 --placement range \\
        --grow 50e-6:2 --shrink 250e-6:0 --kill 60e-6:2 --verify-identity
    python -m repro.cluster --quick --no-kills --slow-faults --hedging

Runs an open-loop query stream against an N-shard cluster while the
kill schedule power-fails shards mid-epoch (each recovers by replica
promotion — checkpoint restore + walk-journal replay) and the network
link drops/corrupts migration messages.  The online cluster auditor
runs at every epoch barrier; a violation exits nonzero with the
violation list.  ``--verify-identity`` re-runs the scenario serially
and across a process pool and gates on byte-identical reports;
``--verify-baseline`` re-runs without kills and gates on the report
matching outside the ``cluster`` section.  The CI chaos-soak job runs
all three gates.

Elastic membership: ``--grow TIME:N`` adds N shards live at TIME,
``--shrink TIME:SHARD`` removes a shard live (its resident walks hand
off first), ``--rebalance`` enables the load-driven range recut
trigger.  Resizes run the prepare → transfer → commit protocol with
walk conservation audited at every barrier.

Gray failures: ``--slow-faults`` degrades shard 1 (override with
``--slow-shard``) with a sustained seeded slow-fault model — correct
answers, stretched latencies, no breaker signal; ``--hedging``
switches on the resilience layer (straggler detection, hedged walk
leases with first-completion-wins, deadline propagation, per-query
retry budgets) that is expected to recover most of the p99 damage.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


def _canonical(report: dict, *, drop: tuple[str, ...] = (),
               shard_drop: tuple[str, ...] = ()) -> str:
    slim = {k: v for k, v in report.items() if k not in drop}
    if shard_drop and "shards" in slim:
        slim["shards"] = [
            {k: v for k, v in s.items() if k not in shard_drop}
            for s in slim["shards"]
        ]
    return json.dumps(slim, sort_keys=True)


def _parse_kill(text: str) -> tuple[float, int]:
    try:
        t, shard = text.split(":")
        return float(t), int(shard)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected TIME:SHARD (e.g. 60e-6:1), got {text!r}"
        ) from None


def _parse_resize(kind: str):
    def parse(text: str) -> tuple[float, str, int]:
        try:
            t, arg = text.split(":")
            return float(t), kind, int(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected TIME:{'COUNT' if kind == 'grow' else 'SHARD'} "
                f"(e.g. 50e-6:2), got {text!r}"
            ) from None

    return parse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--dataset", default="TT", help="dataset name (default: TT)")
    parser.add_argument("--shards", type=int, default=4,
                        help="number of FlashWalker shards (default: 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes hosting shards (default: 1, serial)")
    parser.add_argument("--requests", type=int, default=12,
                        help="number of open-loop queries (default: 12)")
    parser.add_argument("--rate", type=float, default=20e3,
                        help="mean arrival rate, queries/sec (default: 20000)")
    parser.add_argument("--seed", type=int, default=3, help="root seed")
    parser.add_argument("--policy", default="reject",
                        choices=("reject", "shed-oldest", "token-bucket"),
                        help="admission policy (default: reject)")
    parser.add_argument("--kill", type=_parse_kill, action="append",
                        default=None, metavar="TIME:SHARD",
                        help="kill SHARD at cluster TIME (repeatable; "
                             "default: 60e-6:1 and 140e-6:2)")
    parser.add_argument("--no-kills", action="store_true",
                        help="disable the kill schedule")
    parser.add_argument("--placement", default="hash",
                        choices=("hash", "range"),
                        help="vertex placement mode (default: hash)")
    parser.add_argument("--grow", type=_parse_resize("grow"),
                        action="append", default=None, metavar="TIME:COUNT",
                        help="add COUNT shards live at cluster TIME "
                             "(repeatable)")
    parser.add_argument("--shrink", type=_parse_resize("shrink"),
                        action="append", default=None, metavar="TIME:SHARD",
                        help="remove SHARD live at cluster TIME (repeatable)")
    parser.add_argument("--rebalance", action="store_true",
                        help="enable the load-driven range rebalance "
                             "trigger (requires --placement range)")
    parser.add_argument("--slow-faults", action="store_true",
                        help="degrade shard 1's engine with a sustained "
                             "slow-fault model (gray failure: correct but "
                             "slow, no fault counter moves)")
    parser.add_argument("--slow-shard", type=int, action="append",
                        default=None, metavar="SHARD",
                        help="shard(s) to degrade with --slow-faults "
                             "(repeatable; default: 1)")
    parser.add_argument("--slow-factor", type=float, default=6.0,
                        help="slow-fault latency multiplier (default: 6.0)")
    parser.add_argument("--hedging", action="store_true",
                        help="enable the gray-resilience layer: straggler "
                             "detection, hedged walk leases, deadline "
                             "propagation, per-query retry budgets")
    parser.add_argument("--loss", type=float, default=0.05,
                        help="migration-link loss probability (default: 0.05)")
    parser.add_argument("--corrupt", type=float, default=0.02,
                        help="migration-link corruption probability (default: 0.02)")
    parser.add_argument("--quick", action="store_true",
                        help="scale the dataset down (CI-sized run)")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable deterministic metrics + alert rules "
                             "(router and per-shard engines)")
    parser.add_argument("--verify-identity", action="store_true",
                        help="also run serial AND pooled; fail unless the "
                             "reports are byte-identical")
    parser.add_argument("--verify-baseline", action="store_true",
                        help="also run without kills; fail unless the report "
                             "matches outside the 'cluster' section")
    parser.add_argument("--out", default=None,
                        help="write the cluster report JSON here")
    args = parser.parse_args(argv)

    # Imports deferred so --help works in stripped environments.
    from ..common.errors import InvariantViolation
    from ..experiments.harness import ExperimentContext
    from .campaign import (
        DEFAULT_KILLS,
        GRAY_DEFAULTS,
        run_scenario,
        sustained_slow_faults,
    )

    ctx = (
        ExperimentContext.quick(seed=args.seed)
        if args.quick
        else ExperimentContext(seed=args.seed)
    )
    kills = () if args.no_kills else tuple(args.kill or DEFAULT_KILLS)
    resizes = tuple(sorted(
        (args.grow or []) + (args.shrink or []), key=lambda r: r[0]
    ))
    slow_shards = (
        tuple(args.slow_shard or (1,)) if args.slow_faults else ()
    )
    slow = (
        sustained_slow_faults(factor=args.slow_factor)
        if args.slow_faults
        else None
    )
    gray = dict(GRAY_DEFAULTS) if args.hedging else None

    def scenario(*, jobs: int, kills=kills):
        return run_scenario(
            ctx,
            args.dataset,
            n_shards=args.shards,
            n_requests=args.requests,
            rate_qps=args.rate,
            kills=kills,
            loss=args.loss,
            corrupt=args.corrupt,
            policy=args.policy,
            jobs=jobs,
            telemetry=args.telemetry,
            placement=args.placement,
            resizes=resizes,
            rebalance=args.rebalance,
            slow_shards=slow_shards,
            slow=slow,
            gray=gray,
        )

    try:
        outcome = scenario(jobs=args.jobs)
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION [{exc.context}] at t={exc.at:.6g}s:",
              file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        print(f"state: {json.dumps(exc.state, sort_keys=True, default=str)}",
              file=sys.stderr)
        return 2

    report = outcome.report
    svc, cluster = report["service"], report["cluster"]
    req, lat = svc["requests"], svc["latency"]
    print(
        f"{args.dataset} shards={args.shards} jobs={report['jobs']} "
        f"kills={len(cluster['failovers'])}: {req['arrivals']} arrivals -> "
        f"{req['ok']} ok, {req['timed_out']} timed out, {req['shed']} shed"
    )
    print(
        f"walks created={svc['walks']['created']} done={svc['walks']['done']} "
        f"migrations={cluster['migrations']['total']} "
        f"(mean {cluster['migrations']['mean_per_walk']:.2f}/walk)"
    )
    link = cluster["link"]
    print(
        f"link: {link['messages']} messages, {link['losses']} lost, "
        f"{link['corruptions']} corrupted, {link['retransmits']} retransmits, "
        f"{link['escalations']} escalations"
    )
    rto = cluster["rto"]
    print(
        f"failovers={rto['count']} rto_max={rto['max'] * 1e3:.3f}ms "
        f"p99={lat['p99'] * 1e3:.3f}ms  audits={cluster['audit']['audits']} "
        f"violations={cluster['audit']['violations']}"
    )
    gray_s = cluster["gray"]
    hedge, straggle = gray_s["hedging"], gray_s["stragglers"]
    print(
        f"gray: suspect_epochs={straggle['suspect_epochs']} "
        f"hedges={hedge['issued']} "
        f"(wins primary={hedge['wins_primary']} "
        f"hedge={hedge['wins_hedge']}, "
        f"wasted_work_rate={hedge['wasted_work_rate']:.3f}) "
        f"sacrificed={gray_s['walks_sacrificed']} "
        f"budget_exhausted={gray_s['retry_budget_exhausted']}"
    )
    ho, mem = cluster["handoff"], cluster["membership"]
    committed = sum(1 for r in cluster["resizes"] if r.get("committed"))
    print(
        f"resizes={len(cluster['resizes'])} committed={committed} "
        f"aborted={ho['aborts']} live={mem['live_shards']} "
        f"handoff_walks={ho['walks']} deferred={ho['deferred_batches']} "
        f"rpo_walks={ho['rpo_walks']} "
        f"resize_rto_max={ho['rto']['max'] * 1e3:.3f}ms"
    )

    rc = 0
    if args.verify_identity:
        serial = report if args.jobs <= 1 else scenario(jobs=1).report
        pooled = (
            report
            if args.jobs > 1
            else scenario(jobs=min(args.shards, 4)).report
        )
        if _canonical(serial, drop=("jobs",)) == _canonical(pooled, drop=("jobs",)):
            print("identity: serial and pooled reports are byte-identical")
        else:
            print("IDENTITY FAILURE: serial vs pooled reports differ",
                  file=sys.stderr)
            rc = 3
    if args.verify_baseline and kills:
        baseline = scenario(jobs=args.jobs, kills=()).report
        # A promoted replica's monitoring restarts from the restore
        # point, so killed-run shard telemetry legitimately differs
        # from the uninterrupted baseline; the walk results must not.
        shard_drop = ("telemetry",) if args.telemetry else ()
        if _canonical(report, drop=("cluster",), shard_drop=shard_drop) == \
                _canonical(baseline, drop=("cluster",), shard_drop=shard_drop):
            print("baseline: killed run matches uninterrupted run outside "
                  "the cluster section")
        else:
            print("BASELINE FAILURE: killed run diverged from the "
                  "uninterrupted baseline", file=sys.stderr)
            rc = 4

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote report to {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
