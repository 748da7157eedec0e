"""Behavioral model of GraphWalker (Wang et al., ATC'20).

The paper's baseline: an I/O-efficient out-of-core random-walk engine on
a host CPU + NVMe SSD.  Its published algorithm (summarized in Section
II-B of the FlashWalker paper):

* the graph is split into coarse blocks; a memory budget caches blocks;
* **state-aware scheduling**: the next block to load is the one with the
  most walks waiting in it;
* **asynchronous walk updating**: once blocks are in memory, walks keep
  advancing until they leave the in-memory block set or terminate (no
  iteration-wise synchronization);
* walks whose block is absent wait in per-block walk pools; oversized
  pools spill to disk.

Timing: block loads pay ``io_request_overhead + bytes / disk_bw`` (the
host-visible path — flash arrays, channel buses, then PCIe); walk
updates run at ``cpu_hops_per_sec``; pool management is charged per walk
moved.  I/O and compute are serialized as in GraphWalker's measured
profile, and the three components are reported separately — that
breakdown *is* Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.config import GraphWalkerConfig
from ..common.errors import SimulationError
from ..common.rng import RngRegistry
from ..graph.csr import CSRGraph
from ..graph.partition import GraphPartitioning, partition_graph
from ..walks.sampling import make_sampler
from ..walks.spec import WalkSpec, start_vertices
from ..walks.state import WalkSet

__all__ = ["GraphWalker", "GraphWalkerResult"]

#: CPU cost (seconds) to move one walk between pools / schedule it.
_WALK_MANAGE_COST = 25e-9


@dataclass
class GraphWalkerResult:
    """Outcome of one GraphWalker run, with the Fig. 1 breakdown."""

    elapsed: float
    total_walks: int
    hops: int
    io_time: float
    update_time: float
    other_time: float
    disk_read_bytes: int
    disk_write_bytes: int
    block_loads: int
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def disk_read_bandwidth(self) -> float:
        return self.disk_read_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def breakdown(self) -> dict[str, float]:
        """Fractions of total time: load graph / update walks / other."""
        total = max(self.elapsed, 1e-12)
        return {
            "load_graph": self.io_time / total,
            "update_walks": self.update_time / total,
            "other": self.other_time / total,
        }

    def summary(self) -> str:
        from ..common.units import fmt_bandwidth, fmt_bytes, fmt_time

        b = self.breakdown
        return (
            f"t={fmt_time(self.elapsed)} walks={self.total_walks} "
            f"read={fmt_bytes(self.disk_read_bytes)} "
            f"loads={self.block_loads} "
            f"io={b['load_graph']:.0%} upd={b['update_walks']:.0%} "
            f"BW={fmt_bandwidth(self.disk_read_bandwidth)}"
        )


class GraphWalker:
    """GraphWalker bound to a graph with a memory/disk configuration."""

    def __init__(
        self,
        graph: CSRGraph,
        config: GraphWalkerConfig | None = None,
        seed: int = 0,
    ):
        self.cfg = (config or GraphWalkerConfig()).validate()
        self.graph = graph
        self.rngs = RngRegistry(seed)
        self.part: GraphPartitioning = partition_graph(
            graph, self.cfg.block_bytes, vid_bytes=4
        )
        self.memory_blocks = max(1, self.cfg.memory_bytes // self.cfg.block_bytes)

    # ------------------------------------------------------------------- run

    def run(
        self,
        num_walks: int | None = None,
        spec: WalkSpec | None = None,
        starts: np.ndarray | None = None,
    ) -> GraphWalkerResult:
        """Run walks to completion; returns timing + traffic summary."""
        spec = (spec or WalkSpec()).validate(self.graph)
        if starts is None:
            if num_walks is None or num_walks < 1:
                raise SimulationError("need num_walks >= 1 or explicit starts")
            starts = start_vertices(self.graph, num_walks, self.rngs.fresh("starts"))
        else:
            starts = np.asarray(starts, dtype=np.int64)
            if starts.size == 0:
                raise SimulationError("empty starts array")
        sampler = make_sampler(self.graph, spec.biased)
        rng = self.rngs.fresh("walks")

        n_blocks = self.part.num_blocks
        pools: list[list[WalkSet]] = [[] for _ in range(n_blocks)]
        pool_counts = np.zeros(n_blocks, dtype=np.int64)
        spilled = np.zeros(n_blocks, dtype=bool)

        io_time = 0.0
        update_time = 0.0
        other_time = 0.0
        read_bytes = 0
        write_bytes = 0
        hops_total = 0
        block_loads = 0
        completed = 0
        total = int(starts.size)

        # Distribute the initial walks (pool management cost).
        init = WalkSet.start(starts, spec.length)
        init_blocks = self.part.block_of_vertex(init.cur)
        for b in np.unique(init_blocks):
            sel = init_blocks == b
            pools[int(b)].append(init.select(sel))
            pool_counts[b] += int(sel.sum())
        other_time += total * _WALK_MANAGE_COST

        memory: list[int] = []  # LRU order, most recent last

        while completed < total:
            if pool_counts.sum() == 0:  # pragma: no cover - guard
                raise SimulationError(
                    f"GraphWalker stalled with {completed}/{total} done"
                )
            # State-aware scheduling: block with the most waiting walks.
            target = int(np.argmax(pool_counts))
            other_time += _WALK_MANAGE_COST * 4  # scheduling scan
            if target not in memory:
                io_time += (
                    self.cfg.io_request_overhead
                    + self.part.block_bytes(target) / self.cfg.disk_read_bytes_per_sec
                )
                read_bytes += self.part.block_bytes(target)
                block_loads += 1
                memory.append(target)
                if len(memory) > self.memory_blocks:
                    memory.pop(0)
                if spilled[target]:
                    # Walks previously spilled come back from disk.
                    nbytes = int(pool_counts[target]) * 12
                    io_time += (
                        self.cfg.io_request_overhead
                        + nbytes / self.cfg.disk_read_bytes_per_sec
                    )
                    read_bytes += nbytes
                    spilled[target] = False
            else:
                memory.remove(target)
                memory.append(target)
            # Gather walks waiting in every in-memory block.
            gathered: list[WalkSet] = []
            for b in memory:
                if pool_counts[b]:
                    gathered.extend(pools[b])
                    pools[b] = []
                    pool_counts[b] = 0
            walks = WalkSet.concat(gathered)
            if len(walks) == 0:
                continue
            # Asynchronous updating until walks leave the memory set.
            mem_arr = np.asarray(sorted(memory), dtype=np.int64)
            src = walks.src.copy()
            cur = walks.cur.copy()
            hop = walks.hop.copy()
            active = np.arange(len(walks), dtype=np.int64)
            while active.size:
                nxt = sampler(cur[active], rng)
                dead = nxt < 0
                moved = ~dead
                hops_total += int(moved.sum())
                update_time += int(moved.sum()) / self.cfg.cpu_hops_per_sec
                midx = active[moved]
                cur[midx] = nxt[moved]
                hop[midx] -= 1
                done = dead.copy()
                done[moved] = hop[midx] == 0
                if spec.stop_probability > 0:
                    still = moved & ~done
                    if still.any():
                        stop = spec.apply_stop_probability(hop[active[still]], rng)
                        tmp = np.zeros(active.size, dtype=bool)
                        tmp[np.flatnonzero(still)[stop]] = True
                        done |= tmp
                completed += int(done.sum())
                cont = active[~done]
                if cont.size == 0:
                    break
                blocks = self.part.block_of_vertex(cur[cont])
                stays = np.isin(blocks, mem_arr)
                leave = cont[~stays]
                if leave.size:
                    lblocks = blocks[~stays]
                    other_time += leave.size * _WALK_MANAGE_COST
                    for b in np.unique(lblocks):
                        sel = lblocks == b
                        pools[int(b)].append(
                            WalkSet(src[leave[sel]], cur[leave[sel]], hop[leave[sel]])
                        )
                        pool_counts[b] += int(sel.sum())
                        # Oversized pools spill to disk.
                        if (
                            pool_counts[b] > self.cfg.walk_pool_spill
                            and not spilled[b]
                        ):
                            nbytes = int(pool_counts[b]) * 12
                            io_time += (
                                self.cfg.io_request_overhead
                                + nbytes / self.cfg.disk_read_bytes_per_sec
                            )
                            write_bytes += nbytes
                            spilled[b] = True
                active = cont[stays]

        elapsed = io_time + update_time + other_time
        return GraphWalkerResult(
            elapsed=elapsed,
            total_walks=total,
            hops=hops_total,
            io_time=io_time,
            update_time=update_time,
            other_time=other_time,
            disk_read_bytes=read_bytes,
            disk_write_bytes=write_bytes,
            block_loads=block_loads,
            counters={
                "blocks": float(n_blocks),
                "memory_blocks": float(self.memory_blocks),
            },
        )

    def describe(self) -> str:
        from ..common.units import fmt_bytes

        return (
            f"GraphWalker: |V|={self.graph.num_vertices} "
            f"|E|={self.graph.num_edges} blocks={self.part.num_blocks} "
            f"({fmt_bytes(self.cfg.block_bytes)} each), memory holds "
            f"{self.memory_blocks} blocks ({fmt_bytes(self.cfg.memory_bytes)})"
        )
