"""The benchmark's four workloads.

Each workload is a pair of functions.  ``prepare(seed, scale)`` makes
the inputs from the seed (start vertices, arrival schedules, engine and
cluster seeds) and builds nothing the measurement should see.
``repeat(inputs, timers, clock)`` builds a fresh system, drives it
through its public API once, checks the simulated outputs, and returns
an :class:`Outcome` whose host seconds are read from ``clock``.  Every
repetition of one ``inputs`` object must give the same ``digest``.

The graphs are the repository's quick-scale datasets (size x0.5) built
from the fixed dataset seed, as every other benchmark here uses them.
Built from the run's seed instead, graph differences alone moved host
time per run by about +-10% between seeds, which would swamp the
run-to-run spread the bounds in ``BENCHMARK.json`` allow.

``scale`` shrinks walk and query counts for the tests; the benchmark
runs at 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from layers import LayerTimers, setup_sites

__all__ = ["Outcome", "Workload", "WORKLOADS", "sim_digest", "dataset_graph"]

#: Seed of the quick-scale dataset graphs (the repository-wide default).
DATASET_SEED = 3
#: Paper-fixed walk length (Section IV-A).
WALK_LENGTH = 6


@dataclass
class Outcome:
    """What one repetition produced."""

    operations: int
    failed: int
    hops: int
    sim_elapsed: float
    setup_s: float
    run_s: float
    digest: str
    #: Failed correctness checks, one line each (empty: all passed).
    checks: list[str] = field(default_factory=list)
    #: Simulated counters the per-layer metrics read, summed over engines.
    sim: dict = field(default_factory=dict)
    #: Simulated latencies of the OK responses (query workloads only).
    latencies: list[float] = field(default_factory=list)
    #: Process peak RSS (MB) at the end of this repetition; set by the runner.
    peak_rss_mb: float = 0.0
    #: Host speed over this repetition (``hostspeed.HostSpeed.speed``);
    #: set by the runner.  ``setup_s * speed`` and ``run_s * speed`` are
    #: reference-host seconds.
    speed: float = 1.0

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.speed

    @property
    def ref_run_s(self) -> float:
        return self.run_s * self.speed


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    prepare: Callable
    repeat: Callable


def sim_digest(obj) -> str:
    """sha256 of simulated outputs in canonical JSON (floats exact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def dataset_graph(name: str):
    return _context().graph(name)


def _context():
    from repro.experiments.harness import ExperimentContext

    # Spelled out rather than ExperimentContext.quick(), which switches
    # to full scale when REPRO_FULL is set in the environment.
    return ExperimentContext(seed=DATASET_SEED, size_factor=0.5, walk_factor=0.125)


def _rng(seed: int, stream: str):
    from repro.common.rng import RngRegistry

    return RngRegistry(seed).fresh(f"bench:{stream}")


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _requests(seed: int, n: int, rate_qps: float, walks_per_query: int):
    """Open-loop Poisson arrivals, conditioned on ``n`` arrivals in
    ``[0, n / rate_qps]``: the arrival times of such a process are
    sorted uniforms.  Conditioning fixes the schedule's length, so the
    simulated makespan does not swing with the seed the way the last
    of ``n`` exponential gaps does (about +-10% at n = 100)."""
    from repro.service import QueryRequest

    arrivals = np.sort(_rng(seed, "arrivals").uniform(0.0, n / rate_qps, n))
    return [
        QueryRequest(
            query_id=i,
            arrival=float(arrivals[i]),
            num_walks=walks_per_query,
            length=WALK_LENGTH,
            deadline=20e-3,
        ).validate()
        for i in range(n)
    ]


def _engine_counters(counters: dict, elapsed: float, traffic: dict, cfg) -> dict:
    keys = (
        "subgraph_loads", "chip_busy_time", "channel_accel_busy_time",
        "board_accel_busy_time", "roving_walks",
        "ftl_cmt_hits", "ftl_cmt_misses",
    )
    out = {k: float(counters.get(k, 0.0)) for k in keys}
    out.update(
        engine_seconds=float(elapsed),
        chips=cfg.ssd.total_chips,
        channels=cfg.ssd.channels,
        flash_read_bytes=int(traffic["flash_read_bytes"]),
        flash_write_bytes=int(traffic["flash_write_bytes"]),
        channel_bytes=int(traffic["channel_bytes"]),
    )
    return out


def _traffic(result) -> dict:
    return {
        "flash_read_bytes": result.flash_read_bytes,
        "flash_write_bytes": result.flash_write_bytes,
        "channel_bytes": result.channel_bytes,
    }


def _responses(responses) -> list:
    return [
        [r.query_id, r.status, r.latency, r.finish_time]
        for r in sorted(responses, key=lambda r: r.query_id)
    ]


def _query_checks(requests: dict, n: int) -> list[str]:
    arrivals = requests["arrivals"]
    answered = requests["ok"] + requests["timed_out"] + requests["shed"]
    checks = []
    if arrivals != n:
        checks.append(f"{arrivals} arrivals for {n} requests")
    if answered != arrivals:
        checks.append(f"ok + timed_out + shed = {answered} != {arrivals} arrivals")
    return checks


# -- batch workloads -----------------------------------------------------------


def _prepare_batch(dataset: str, walks: int, cfg_overrides: Callable):
    def prepare(seed: int, scale: float = 1.0):
        from repro.walks.spec import start_vertices

        graph = dataset_graph(dataset)
        n = _scaled(walks, scale)
        return {
            "graph": graph,
            "cfg": _context().flashwalker_config(dataset, **cfg_overrides()),
            "starts": start_vertices(graph, n, _rng(seed, "starts")),
            "engine_seed": seed + 10,
        }

    return prepare


def _repeat_batch(inp: dict, timers: LayerTimers | None, clock=time.perf_counter) -> Outcome:
    from repro.core.flashwalker import FlashWalker
    from repro.walks.spec import WalkSpec

    t0 = clock()
    fw = FlashWalker(inp["graph"], inp["cfg"], seed=inp["engine_seed"])
    setup_s = clock() - t0
    with timers if timers is not None else contextlib.nullcontext():
        t0 = clock()
        res = fw.run(starts=inp["starts"], spec=WalkSpec(length=WALK_LENGTH))
        run_s = clock() - t0
    n = int(inp["starts"].size)
    checks = []
    if res.total_walks != n or fw.completed_walks != n:
        checks.append(f"{fw.completed_walks}/{res.total_walks} of {n} walks completed")
    if not 0 < res.hops <= n * WALK_LENGTH:
        checks.append(f"{res.hops} hops for {n} walks of length {WALK_LENGTH}")
    traffic = _traffic(res)
    return Outcome(
        operations=n,
        failed=n - min(n, fw.completed_walks),
        hops=res.hops,
        sim_elapsed=res.elapsed,
        setup_s=setup_s,
        run_s=run_s,
        digest=sim_digest({"elapsed": res.elapsed, "hops": res.hops, **traffic}),
        checks=checks,
        sim=_engine_counters(res.counters, res.elapsed, traffic, fw.cfg),
    )


def _flash_overrides() -> dict:
    from repro.common.config import DurabilityConfig, FTLConfig, SSDConfig

    return {
        "ssd": dataclasses.replace(SSDConfig(), ftl=FTLConfig(enabled=True)),
        "durability": DurabilityConfig(enabled=True, journal_interval=25e-6),
    }


# -- serve-openloop ------------------------------------------------------------


def _prepare_serve(seed: int, scale: float = 1.0):
    from repro.core.flashwalker import FlashWalker
    from repro.service import ServiceConfig
    from repro.service.campaign import chaos_faults

    ctx = _context()
    graph = dataset_graph("TT")
    wpq = 8
    # The failover victim is the chip holding block 0, a function of the
    # placement only; probing it builds an engine outside the timing.
    probe = FlashWalker(graph, ctx.flashwalker_config("TT"), seed=seed)
    return {
        "graph": graph,
        "cfg": ctx.flashwalker_config("TT", faults=chaos_faults(probe)),
        "requests": _requests(seed, _scaled(300, scale), 30e3, wpq),
        # "defer" holds arrivals while the breaker is open after the chip
        # failure, and the queue is deep enough that none is shed, so no
        # query fails on any seed; the deferrals still exercise admission.
        # Sixteen queries in flight keep the engine below saturation: at
        # four, bursts of the Poisson schedule queued long enough that the
        # latency tail (p80 and up) moved by 1.5x from seed to seed.
        "svc_cfg": ServiceConfig(
            queue_capacity=64,
            admission_policy="reject",
            max_inflight_walks=16 * wpq,
            breaker_policy="defer",
            breaker_cooldown=150e-6,
        ),
        "engine_seed": seed + 10,
    }


def _repeat_serve(inp: dict, timers: LayerTimers | None, clock=time.perf_counter) -> Outcome:
    from repro.core.flashwalker import FlashWalker
    from repro.service import WalkQueryService

    t0 = clock()
    fw = FlashWalker(inp["graph"], inp["cfg"], seed=inp["engine_seed"])
    svc = WalkQueryService(fw, inp["svc_cfg"])
    setup_s = clock() - t0
    with timers if timers is not None else contextlib.nullcontext():
        t0 = clock()
        out = svc.run(inp["requests"])
        run_s = clock() - t0
    res, section = out.result, out.result.service
    req = section["requests"]
    n = len(inp["requests"])
    checks = _query_checks(req, n)
    if section["audit"]["violations"]:
        checks.append(f"{section['audit']['violations']} service audit violations")
    if not section["walks"]["injected"] == fw.total_walks == fw.completed_walks:
        checks.append(
            f"walks injected {section['walks']['injected']}, engine "
            f"{fw.completed_walks}/{fw.total_walks} completed"
        )
    traffic = _traffic(res)
    sim = _engine_counters(res.counters, res.elapsed, traffic, fw.cfg)
    sim.update(shed=req["shed"], deferrals=section["breaker"]["deferrals"])
    return Outcome(
        operations=n,
        failed=req["timed_out"] + req["shed"],
        hops=res.hops,
        sim_elapsed=res.elapsed,
        setup_s=setup_s,
        run_s=run_s,
        digest=sim_digest({
            "elapsed": res.elapsed, "hops": res.hops, **traffic,
            "responses": _responses(out.responses),
        }),
        checks=checks,
        sim=sim,
        latencies=[r.latency for r in out.responses if r.status == "ok"],
    )


# -- cluster-failover ----------------------------------------------------------

#: Shard power failures: (simulated time, shard).
KILLS = ((60e-6, 1), (140e-6, 2), (400e-6, 3))


def _prepare_cluster(seed: int, scale: float = 1.0):
    from repro.cluster.campaign import cluster_config, cluster_shard_config

    wpq = 4
    ccfg = cluster_config(
        n_shards=4, kills=KILLS, loss=0.08, corrupt=0.04, walks_per_query=wpq
    )
    # A kill fires at the start of the first epoch its shard has work at
    # or after the kill time (kill_epoch_frac 0); later in the epoch it
    # can miss a shard that drains first, and then no failover happens.
    # The deeper queue keeps every query admitted.
    ccfg = dataclasses.replace(ccfg, queue_capacity=64, kill_epoch_frac=0.0).validate()
    return {
        "graph": dataset_graph("TT"),
        "shard_cfg": cluster_shard_config(_context(), "TT"),
        "ccfg": ccfg,
        # Light load: queries rarely overlap, so each costs about the same
        # number of epochs on every seed.  Host time follows epochs (each
        # checkpoints every stepped shard), and at 10k-40k qps their count
        # moved by up to 2x between seeds as arrivals bunched differently.
        "requests": _requests(seed, _scaled(75, scale), 1e3, wpq),
        "cluster_seed": seed + 20,
    }


def _repeat_cluster(inp: dict, timers: LayerTimers | None, clock=time.perf_counter) -> Outcome:
    from repro.cluster import ClusterService

    t0 = clock()
    svc = ClusterService(
        inp["graph"], inp["shard_cfg"], inp["ccfg"], seed=inp["cluster_seed"], jobs=1
    )
    ctor_s = clock() - t0
    # Shard engines are built and opened inside run(); the set-up calls
    # are timed by wrappers (the traced repetition's own, or two of them).
    # Traced timers accumulate over repetitions, hence the difference.
    probe = timers if timers is not None else LayerTimers(setup_sites(), clock)
    keys = ("ShardHosts.__init__", "ShardHosts.setup")
    before = sum(probe.inclusive(k) for k in keys)
    with probe:
        t0 = clock()
        out = svc.run(inp["requests"])
        total_s = clock() - t0
    shard_setup_s = sum(probe.inclusive(k) for k in keys) - before
    rep = out.report
    cl, section = rep["cluster"], rep["service"]
    n = len(inp["requests"])
    checks = _query_checks(section["requests"], n)
    if cl["audit"]["violations"]:
        checks.append(f"{cl['audit']['violations']} cluster audit violations")
    if section["walks"]["created"] != section["walks"]["done"]:
        checks.append(f"walks created/done {section['walks']}")
    if cl["rto"]["count"] != len(KILLS) or cl["kills_unfired"]:
        checks.append(
            f"rto.count {cl['rto']['count']} for {len(KILLS)} kills, "
            f"unfired {cl['kills_unfired']}"
        )
    shards = rep["shards"]
    sim: dict = {}
    for s in shards:
        for k, v in _engine_counters(
            s["counters"], s["elapsed"], s["traffic"], inp["shard_cfg"]
        ).items():
            sim[k] = sim.get(k, 0) + v
    sim.update(
        chips=inp["shard_cfg"].ssd.total_chips,
        channels=inp["shard_cfg"].ssd.channels,
        shed=section["requests"]["shed"],
        deferrals=section["deferrals"],
        epochs=cl["epochs"],
        walks_admitted=section["walks"]["created"],
        migrations=cl["migrations"]["total"],
        retransmits=cl["link"]["retransmits"],
    )
    shard_rows = [
        [s["elapsed"], s["hops"], s["traffic"]["flash_read_bytes"],
         s["traffic"]["flash_write_bytes"], s["traffic"]["channel_bytes"]]
        for s in shards
    ]
    return Outcome(
        operations=n,
        failed=section["requests"]["timed_out"] + section["requests"]["shed"],
        hops=sum(s["hops"] for s in shards),
        sim_elapsed=cl["barrier_time"],
        setup_s=ctor_s + shard_setup_s,
        run_s=total_s - shard_setup_s,
        digest=sim_digest({
            "barrier_time": cl["barrier_time"], "shards": shard_rows,
            "responses": _responses(out.responses),
        }),
        checks=checks,
        sim=sim,
        latencies=[r.latency for r in out.responses if r.status == "ok"],
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("batch-skewed", _prepare_batch("TT", 48_000, dict), _repeat_batch),
        Workload("batch-flash", _prepare_batch("R8B", 4_000, _flash_overrides), _repeat_batch),
        Workload("serve-openloop", _prepare_serve, _repeat_serve),
        Workload("cluster-failover", _prepare_cluster, _repeat_cluster),
    )
}
