"""Cluster chaos-campaign points.

One point = one seeded kill-a-shard scenario: an open-loop query
stream served by an N-shard cluster while the kill schedule power-
fails shards mid-epoch and the network link drops/corrupts migration
messages.  Registered as the ``cluster_failover`` experiment so
``python -m repro.parallel --experiment cluster_failover`` sweeps
shard counts and fault intensities with the usual per-point
determinism guarantees.

The scenario builders here are shared by the CLI
(``python -m repro.cluster``), the failover benchmark, and the tests,
so every consumer runs the same code path.
"""

from __future__ import annotations

from dataclasses import replace

from ..common.config import DurabilityConfig, FaultConfig, SlowFaultConfig
from ..parallel.campaign import CampaignPoint, point_runner
from ..service.campaign import build_requests, walk_budget
from .cluster import ClusterService
from .config import ClusterConfig

__all__ = [
    "DEFAULT_KILLS",
    "DEFAULT_RESIZES",
    "DEFAULT_SLOW_FAULTS",
    "GRAY_DEFAULTS",
    "sustained_slow_faults",
    "cluster_config",
    "cluster_shard_config",
    "points",
    "resize_points",
    "run_point",
    "run_resize_point",
    "run_scenario",
]

#: Default kill schedule: two mid-run shard power failures.
DEFAULT_KILLS = ((60e-6, 1), (140e-6, 2))

#: Default elasticity schedule: grow 2 -> 4 early, shrink away the
#: first seed shard once the grown cluster is serving.
DEFAULT_RESIZES = ((50e-6, "grow", 2), (250e-6, "shrink", 0))

#: Default slow-fault injection for gray scenarios: seeded random
#: chip-read and channel-bus degradation windows on the victim shards.
DEFAULT_SLOW_FAULTS = SlowFaultConfig(
    enabled=True,
    n_random=6,
    horizon=400e-6,
    factor_min=4.0,
    factor_max=10.0,
)


def sustained_slow_faults(
    *,
    factor: float = 6.0,
    t_start: float = 0.0,
    t_end: float = 1.0,
    n_chips: int = 256,
    n_channels: int = 64,
) -> SlowFaultConfig:
    """Whole-device sustained degradation: every chip's sense/program
    and every channel bus stretched by ``factor`` across the window.

    This is the canonical gray failure — the device still answers
    everything correctly, no fault counter moves, it is just uniformly
    slow — and what the straggler detector is expected to catch.
    ``n_chips``/``n_channels`` only need to cover the target geometry
    (windows for units the device doesn't have are never consulted).
    """
    windows = tuple(
        ("chip-read", u, t_start, t_end, factor) for u in range(n_chips)
    ) + tuple(
        ("chip-program", u, t_start, t_end, factor) for u in range(n_chips)
    ) + tuple(
        ("channel-bus", c, t_start, t_end, factor) for c in range(n_channels)
    )
    return SlowFaultConfig(enabled=True, windows=windows)

#: Gray-resilience knobs the ``--hedging`` paths switch on together:
#: straggler detection tuned for short scenarios, hedged leases,
#: deadline propagation, and per-query retry budgets.
GRAY_DEFAULTS = dict(
    straggler_detection=True,
    straggler_window_epochs=4,
    straggler_min_epochs=1,
    straggler_median_multiple=2.0,
    hedging_enabled=True,
    hedge_delay=10e-6,
    deadline_propagation=True,
    # Generous by default: the budget's job is to stop retransmit
    # storms and past-deadline retries, not to starve hedging (every
    # hedged walk-segment charges one unit, and a query can fan out
    # hundreds of walks).  Tests pin small budgets explicitly.
    query_retry_budget=4096,
)


def cluster_shard_config(ctx, dataset: str, *, chaos: bool = True,
                         slow: SlowFaultConfig | None = None):
    """Per-shard engine config for cluster serving.

    Durability is mandatory (failover replays checkpoint + journal);
    periodic checkpoints stay off because the cluster checkpoints at
    every epoch boundary itself.  ``chaos`` adds background NAND read
    faults and CRC noise — the degraded-mode signals the per-shard
    circuit breakers watch.  ``slow`` attaches a gray-failure slow-
    fault model (latent chip/bus degradation no breaker can see).
    """
    faults = FaultConfig(
        enabled=chaos,
        page_error_rate=0.05 if chaos else 0.0,
        crc_error_rate=0.02 if chaos else 0.0,
    )
    if slow is not None:
        faults = replace(faults, slow=slow)
    return ctx.flashwalker_config(
        dataset,
        durability=DurabilityConfig(enabled=True, journal_interval=25e-6),
        faults=faults,
    )


def cluster_config(
    *,
    n_shards: int = 4,
    kills=DEFAULT_KILLS,
    loss: float = 0.05,
    corrupt: float = 0.02,
    policy: str = "reject",
    walks_per_query: int = 16,
    segment_hops: int = 2,
    length: int = 6,
    telemetry: bool = False,
    placement: str = "hash",
    resizes=(),
    rebalance: bool = False,
    gray: dict | None = None,
) -> ClusterConfig:
    """Deployment config for one chaos scenario.

    ``gray`` is a dict of extra :class:`ClusterConfig` field overrides
    (straggler/hedging/deadline/brownout/ramp knobs); None leaves every
    gray layer at its default (off).
    """
    resizes = tuple((float(t), str(k), int(a)) for t, k, a in resizes)
    # Grows mint physical ids above n_shards, so kill targets wrap at
    # the largest id the schedule can ever create.
    n_phys_max = n_shards + sum(a for _, k, a in resizes if k == "grow")
    kills = tuple((float(t), int(s) % n_phys_max) for t, s in kills)
    return ClusterConfig(
        n_shards=n_shards,
        placement=placement,
        segment_hops=segment_hops,
        max_walk_length=length,
        link_loss_prob=loss,
        link_corrupt_prob=corrupt,
        kill_schedule=kills,
        queue_capacity=8,
        admission_policy=policy,
        rate_limit_qps=30e3 if policy == "token-bucket" else 0.0,
        max_inflight_walks_per_shard=max(64, 4 * walks_per_query),
        breaker_cooldown=150e-6,
        telemetry_enabled=telemetry,
        resize_schedule=resizes,
        rebalance_enabled=rebalance,
        **(gray or {}),
    ).validate()


def run_scenario(
    ctx,
    dataset: str,
    *,
    n_shards: int = 4,
    n_requests: int = 12,
    rate_qps: float = 20e3,
    kills=DEFAULT_KILLS,
    loss: float = 0.05,
    corrupt: float = 0.02,
    policy: str = "reject",
    jobs: int = 1,
    chaos: bool = True,
    seed_offset: int = 0,
    telemetry: bool = False,
    placement: str = "hash",
    resizes=(),
    rebalance: bool = False,
    slow_shards=(),
    slow: SlowFaultConfig | None = None,
    gray: dict | None = None,
):
    """Run one kill-a-shard scenario; returns a ClusterOutcome.

    ``slow_shards`` names the shard ids whose engines carry a slow-
    fault model (``slow`` or :data:`DEFAULT_SLOW_FAULTS`) — gray-
    degraded hardware the breakers cannot see; ``gray`` passes
    resilience overrides through to :func:`cluster_config`.
    """
    graph = ctx.graph(dataset)
    walks_per_query, _ = walk_budget(ctx, dataset)
    requests = build_requests(
        ctx, dataset, n_requests=n_requests, rate_qps=rate_qps,
        seed_offset=seed_offset,
    )
    ccfg = cluster_config(
        n_shards=n_shards, kills=kills, loss=loss, corrupt=corrupt,
        policy=policy, walks_per_query=walks_per_query,
        length=requests[0].length, telemetry=telemetry,
        placement=placement, resizes=resizes, rebalance=rebalance,
        gray=gray,
    )
    if slow_shards:
        slow_cfg = slow if slow is not None else DEFAULT_SLOW_FAULTS
        base = cluster_shard_config(ctx, dataset, chaos=chaos)
        degraded = cluster_shard_config(ctx, dataset, chaos=chaos, slow=slow_cfg)
        slow_set = {int(s) for s in slow_shards}
        shard_cfg = [
            degraded if i in slow_set else base for i in range(n_shards)
        ]
    else:
        shard_cfg = cluster_shard_config(ctx, dataset, chaos=chaos)
    svc = ClusterService(
        graph, shard_cfg, ccfg, seed=ctx.seed + 20 + seed_offset, jobs=jobs
    )
    return svc.run(requests)


def points(ctx, datasets: list[str] | None = None) -> list[CampaignPoint]:
    return [
        CampaignPoint.make("cluster_failover", name, n_shards=n, kills=kills)
        for name in (datasets or ctx.datasets)
        for n, kills in ((2, 1), (4, 2))
    ]


@point_runner("cluster_failover")
def run_point(ctx, point: CampaignPoint):
    name = point.dataset
    n_shards = int(point.param("n_shards", 4))
    n_kills = int(point.param("kills", 2))
    outcome = run_scenario(
        ctx,
        name,
        n_shards=n_shards,
        n_requests=int(point.param("n_requests", 12)),
        rate_qps=float(point.param("rate_qps", 20e3)),
        kills=DEFAULT_KILLS[:n_kills],
        policy=str(point.param("policy", "reject")),
        seed_offset=int(point.param("seed_offset", 0)),
    )
    svc = outcome.report["service"]
    cluster = outcome.report["cluster"]
    row = {
        "dataset": name,
        "n_shards": n_shards,
        "kills": len(cluster["failovers"]),
        "arrivals": svc["requests"]["arrivals"],
        "ok": svc["requests"]["ok"],
        "timed_out": svc["requests"]["timed_out"],
        "shed": svc["requests"]["shed"],
        "migrations": cluster["migrations"]["total"],
        "rto_max_ms": cluster["rto"]["max"] * 1e3,
        "audit_violations": cluster["audit"]["violations"],
    }
    return row, outcome.report


def resize_points(ctx, datasets: list[str] | None = None) -> list[CampaignPoint]:
    return [
        CampaignPoint.make("cluster_resize", name, placement=placement)
        for name in (datasets or ctx.datasets)
        for placement in ("hash", "range")
    ]


@point_runner("cluster_resize")
def run_resize_point(ctx, point: CampaignPoint):
    """One elasticity scenario: grow 2 -> 4 with a kill landing on a
    freshly-added shard mid-handoff, then shrink 4 -> 3."""
    name = point.dataset
    placement = str(point.param("placement", "hash"))
    outcome = run_scenario(
        ctx,
        name,
        n_shards=int(point.param("n_shards", 2)),
        n_requests=int(point.param("n_requests", 12)),
        rate_qps=float(point.param("rate_qps", 20e3)),
        kills=((60e-6, 2),),
        placement=placement,
        resizes=DEFAULT_RESIZES,
        seed_offset=int(point.param("seed_offset", 0)),
    )
    svc = outcome.report["service"]
    cluster = outcome.report["cluster"]
    handoff = cluster["handoff"]
    committed = sum(1 for r in cluster["resizes"] if r.get("committed"))
    row = {
        "dataset": name,
        "placement": placement,
        "resizes": len(cluster["resizes"]),
        "committed": committed,
        "handoff_walks": handoff["walks"],
        "handoff_deferred": handoff["deferred_batches"],
        "rpo_walks": handoff["rpo_walks"],
        "resize_rto_max_ms": handoff["rto"]["max"] * 1e3,
        "live_shards": len(cluster["membership"]["live_shards"]),
        "ok": svc["requests"]["ok"],
        "arrivals": svc["requests"]["arrivals"],
        "audit_violations": cluster["audit"]["violations"],
    }
    return row, outcome.report
