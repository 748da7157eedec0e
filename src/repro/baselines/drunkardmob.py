"""Behavioral model of DrunkardMob (Kyrola, RecSys'13).

The iteration-synchronous baseline of Section II-B: GraphChi-style
execution where each iteration streams *every* graph block through
memory and advances each walk by at most one block-resident burst, and
walks are written back to disk between iterations.  Exists to
demonstrate why asynchronous updating (GraphWalker) and in-storage
updating (FlashWalker) win — the motivation data of the paper's
Section II.
"""

from __future__ import annotations

import numpy as np

from ..common.config import GraphWalkerConfig
from ..common.errors import SimulationError
from ..common.rng import RngRegistry
from ..graph.csr import CSRGraph
from ..graph.partition import partition_graph
from ..walks.sampling import make_sampler
from ..walks.spec import WalkSpec, start_vertices
from ..walks.state import WalkSet
from .graphwalker import GraphWalkerResult

__all__ = ["DrunkardMob"]

_WALK_RECORD_BYTES = 12


class DrunkardMob:
    """Iteration-synchronous out-of-core random walker."""

    def __init__(
        self,
        graph: CSRGraph,
        config: GraphWalkerConfig | None = None,
        seed: int = 0,
    ):
        self.cfg = (config or GraphWalkerConfig()).validate()
        self.graph = graph
        self.rngs = RngRegistry(seed)
        self.part = partition_graph(graph, self.cfg.block_bytes, vid_bytes=4)

    def run(
        self,
        num_walks: int | None = None,
        spec: WalkSpec | None = None,
        starts: np.ndarray | None = None,
        max_iterations: int = 10_000,
    ) -> GraphWalkerResult:
        """Run walks to completion; returns the same result shape as
        :class:`~repro.baselines.graphwalker.GraphWalker` for comparison."""
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
        total = int(starts.size)
        walks = WalkSet.start(starts, spec.length)

        io_time = 0.0
        update_time = 0.0
        other_time = 0.0
        read_bytes = 0
        write_bytes = 0
        hops_total = 0
        block_loads = 0
        completed = 0

        iterations = 0
        while len(walks) and iterations < max_iterations:
            iterations += 1
            blocks = self.part.block_of_vertex(walks.cur)
            next_parts: list[WalkSet] = []
            # Stream every block that currently hosts walks.
            for b in np.unique(blocks):
                bsize = self.part.block_bytes(int(b))
                io_time += (
                    self.cfg.io_request_overhead
                    + bsize / self.cfg.disk_read_bytes_per_sec
                )
                read_bytes += bsize
                block_loads += 1
                sel = blocks == b
                sub = walks.select(sel)
                # Advance while walks stay inside this single block.
                src, cur, hop = sub.src.copy(), sub.cur.copy(), sub.hop.copy()
                active = np.arange(len(sub), dtype=np.int64)
                while active.size:
                    nxt = sampler(cur[active], rng)
                    dead = nxt < 0
                    moved = ~dead
                    n_moved = int(moved.sum())
                    hops_total += n_moved
                    update_time += n_moved / self.cfg.cpu_hops_per_sec
                    midx = active[moved]
                    cur[midx] = nxt[moved]
                    hop[midx] -= 1
                    done = dead.copy()
                    done[moved] = hop[midx] == 0
                    if spec.stop_probability > 0:
                        still = moved & ~done
                        if still.any():
                            stop = spec.apply_stop_probability(
                                hop[active[still]], rng
                            )
                            tmp = np.zeros(active.size, dtype=bool)
                            tmp[np.flatnonzero(still)[stop]] = True
                            done |= tmp
                    completed += int(done.sum())
                    cont = active[~done]
                    if cont.size == 0:
                        break
                    stays = self.part.block_of_vertex(cur[cont]) == b
                    leave = cont[~stays]
                    if leave.size:
                        next_parts.append(
                            WalkSet(src[leave], cur[leave], hop[leave])
                        )
                    active = cont[stays]
            walks = WalkSet.concat(next_parts)
            # Iteration-wise synchronization: surviving walks go to disk
            # and come back next iteration.
            nbytes = len(walks) * _WALK_RECORD_BYTES
            if nbytes:
                io_time += 2 * (
                    self.cfg.io_request_overhead
                    + nbytes / self.cfg.disk_read_bytes_per_sec
                )
                write_bytes += nbytes
                read_bytes += nbytes
            other_time += len(walks) * 20e-9
        if len(walks):  # pragma: no cover - guard
            raise SimulationError(
                f"DrunkardMob hit max_iterations with {len(walks)} walks left"
            )

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
            counters={"iterations": float(iterations), "blocks": float(n_blocks)},
        )

    def describe(self) -> str:
        from ..common.units import fmt_bytes

        return (
            f"DrunkardMob: blocks={self.part.num_blocks} "
            f"({fmt_bytes(self.cfg.block_bytes)} each), iteration-synchronous"
        )
