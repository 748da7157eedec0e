"""Outside-in host timers for the layers of ``repro``.

The timers are installed from the benchmark's own files: each wrapped
public function is replaced, on its class or module, by a wrapper that
opens a span on entry and closes it on exit.  Open spans live on one
stack; every span links to the span below it (its parent), so a layer's
*self time* is its inclusive time minus the time its child spans
cover.  Closed spans are folded into per-function totals and a
parent-layer -> child-layer edge table at once, which keeps memory flat
however many calls a repetition makes.  :meth:`LayerTimers.uninstall`
puts every original back.

The wrappers never touch arguments or results, so a traced run's
simulated outputs equal an untraced run's (the benchmark checks this
with ``sim_digest`` on every traced repetition).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["ROOT", "Site", "LayerTimers", "layer_sites", "setup_sites"]

#: Layer name of the bottom frame: time in the measured call that no
#: wrapped function covers.
ROOT = "<bench>"


@dataclass(frozen=True)
class Site:
    """One wrapped function.

    ``timed=False`` counts calls only (for functions too small and too
    frequent to time without distorting the run).  Each ``tallies``
    entry ``(name, fn)`` adds ``fn(args, result)`` to the counter
    ``name`` after every call.
    """

    layer: str
    owner: object
    attr: str
    timed: bool = True
    tallies: tuple = ()

    @property
    def key(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


class _FnStat:
    __slots__ = ("site", "calls", "incl", "self_s", "by_parent")

    def __init__(self, site: Site):
        self.site = site
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        #: parent layer -> [calls, inclusive seconds]
        self.by_parent: dict[str, list] = {}


class LayerTimers:
    """Install wrappers on ``sites``; collect per-layer host time."""

    def __init__(self, sites: list[Site], clock: Callable[[], float] = time.perf_counter):
        self.sites = list(sites)
        self.clock = clock
        self.stack: list[list] = [[ROOT, 0.0]]
        self.counts: dict[str, float] = {}
        self.stats: dict[str, _FnStat] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "LayerTimers":
        if self._saved:
            raise RuntimeError("timers already installed")
        for site in self.sites:
            fn = site.owner.__dict__[site.attr]
            st = self.stats.setdefault(site.key, _FnStat(site))
            for name, _ in site.tallies:
                self.counts.setdefault(name, 0)
            wrapper = self._timed(fn, st) if site.timed else self._counted(fn, st)
            self._saved.append((site.owner, site.attr, fn))
            setattr(site.owner, site.attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self) -> "LayerTimers":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _counted(self, fn, st: _FnStat):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, fn, st: _FnStat):
        layer = st.site.layer
        tallies = st.site.tallies
        stack = self.stack
        counts = self.counts
        clock = self.clock
        by_parent = st.by_parent

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                st.calls += 1
                st.incl += dur
                st.self_s += dur - frame[1]
                edge = by_parent.get(parent[0])
                if edge is None:
                    by_parent[parent[0]] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            for name, tally in tallies:
                counts[name] += tally(args, result)
            return result

        return timed

    # -- results ------------------------------------------------------------

    def calls(self, key: str) -> int:
        st = self.stats.get(key)
        return st.calls if st is not None else 0

    def inclusive(self, key: str) -> float:
        st = self.stats.get(key)
        return st.incl if st is not None else 0.0

    @property
    def covered_s(self) -> float:
        """Seconds inside top-level spans (children of the root frame)."""
        return self.stack[0][1]

    def layers(self) -> dict[str, dict]:
        """Per-layer ``calls``, ``self_s`` and ``incl_s`` over timed sites
        that were called; a layer the run never reached is absent.

        ``incl_s`` counts only calls not nested in the same layer, so it
        never double-counts a layer that calls into itself.
        """
        out: dict[str, dict] = {}
        for st in self.stats.values():
            if not st.site.timed or not st.calls:
                continue
            row = out.setdefault(
                st.site.layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            )
            row["calls"] += st.calls
            row["self_s"] += st.self_s
            row["incl_s"] += sum(
                e[1] for p, e in st.by_parent.items() if p != st.site.layer
            )
        return out

    def edges(self) -> list[dict]:
        """Parent layer -> child layer: calls and inclusive seconds."""
        acc: dict[tuple[str, str], list] = {}
        for st in self.stats.values():
            for parent, (n, secs) in st.by_parent.items():
                row = acc.setdefault((parent, st.site.layer), [0, 0.0])
                row[0] += n
                row[1] += secs
        return [
            {"parent": p, "child": c, "calls": n, "incl_s": s}
            for (p, c), (n, s) in sorted(acc.items())
        ]


def _n_arg(i: int):
    return lambda args, result: len(args[i])


def layer_sites() -> list[Site]:
    """Every wrapped public call, named after the ``repro`` module layer.

    Imported lazily: the benchmark's own modules import nothing from
    ``repro`` at module level, so a checkout without the program fails
    in ``run.py``'s import check rather than here.
    """
    import repro.core.flashwalker as fwmod
    import repro.walks.sampling as sampling
    from repro.cluster.audit import ClusterAuditor
    from repro.cluster.cluster import ClusterService
    from repro.cluster.health import HealthBoard
    from repro.cluster.link import NetworkLink
    from repro.cluster.placement import VertexPlacement
    from repro.cluster.pool import ShardHosts
    from repro.cluster.shard import ShardRuntime
    from repro.core.board_accel import BoardAccelerator
    from repro.core.buffers import ForeignerStore, PartitionWalkBuffer
    from repro.core.dense import DenseVertexTable
    from repro.core.flashwalker import FlashWalker
    from repro.core.query_cache import QueryCacheArray
    from repro.core.scheduler import SubgraphScheduler
    from repro.durability.journal import WalkJournal
    from repro.flash.channel import FlashChannel
    from repro.flash.nand import FlashChip
    from repro.flash.ssd import SSD
    from repro.service.audit import ServiceAuditor
    from repro.service.breaker import CircuitBreaker
    from repro.service.queue import AdmissionQueue
    from repro.sim.engine import Simulator
    from repro.walks.state import WalkSet

    return [
        Site("sim", Simulator, "run"),
        Site("sim", Simulator, "step", timed=False),
        Site("core.advance", fwmod, "advance_batch",
             tallies=(("core.advance.walks", lambda a, r: len(a[1].walks)),)),
        Site("walks", sampling, "uniform_next",
             tallies=(("walks.sampling.vertices", _n_arg(1)),)),
        Site("walks", WalkSet, "__init__", timed=False),
        Site("core.query_cache", QueryCacheArray, "probe_batch",
             tallies=(("core.query_cache.probes", _n_arg(1)),
                      ("core.query_cache.hits", lambda a, r: r[0]),
                      ("core.query_cache.misses", lambda a, r: r[1]))),
        Site("core.board_accel", BoardAccelerator, "query_and_direct"),
        Site("core.dense", DenseVertexTable, "classify"),
        Site("core.dense", DenseVertexTable, "pre_walk",
             tallies=(("core.dense.pre_walks", _n_arg(1)),)),
        *(Site("core.scheduler", SubgraphScheduler, name) for name in (
            "next_subgraph", "take_walks", "add_buffered", "chips_with_work")),
        Site("core.buffers", PartitionWalkBuffer, "push"),
        Site("core.buffers", PartitionWalkBuffer, "drain"),
        Site("core.buffers", ForeignerStore, "push"),
        Site("core.buffers", ForeignerStore, "drain"),
        Site("flash", FlashChannel, "transfer_data"),
        Site("flash", FlashChannel, "transfer_meta"),
        *(Site("flash", FlashChip, name) for name in (
            "read_page", "read_pages_striped", "program_page",
            "internal_read_page")),
        Site("flash", SSD, "dftl_probe"),
        Site("flash", SSD, "ftl_gc_collect"),
        Site("durability", WalkJournal, "append"),
        Site("durability", WalkJournal, "mark_flushed"),
        Site("faults.checkpoint", FlashWalker, "checkpoint_now"),
        Site("faults.checkpoint", FlashWalker, "restore_for_resume"),
        Site("service", AdmissionQueue, "offer"),
        Site("service", AdmissionQueue, "pop"),
        Site("service", CircuitBreaker, "is_open"),
        Site("service", ServiceAuditor, "audit"),
        Site("service", FlashWalker, "inject_walks",
             tallies=(("service.inject.walks", _n_arg(1)),)),
        Site("cluster.router", ClusterService, "run"),
        Site("cluster.shard", ShardRuntime, "step"),
        *(Site("cluster.pool", ShardHosts, name) for name in (
            "__init__", "setup", "step", "finalize")),
        Site("cluster.placement", VertexPlacement, "shard_of"),
        Site("cluster.link", NetworkLink, "transmit"),
        Site("cluster.audit", ClusterAuditor, "audit"),
        Site("cluster.health", HealthBoard, "poll"),
        Site("cluster.health", HealthBoard, "update"),
    ]


def setup_sites() -> list[Site]:
    """The once-per-run cluster set-up calls, timed on every repetition
    (untraced ones too) so ``setup_s`` excludes nothing and adds
    nothing measurable."""
    from repro.cluster.pool import ShardHosts

    return [
        Site("cluster.pool", ShardHosts, "__init__"),
        Site("cluster.pool", ShardHosts, "setup"),
    ]
