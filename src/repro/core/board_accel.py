"""Board-level accelerator state (Section III-D, Fig. 4).

The board accelerator directs roving walks (subgraph mapping table +
dense vertices mapping table + walk query caches), updates walks landing
in its resident hot subgraphs, schedules subgraphs to chip accelerators,
and writes completed / overflow / foreigner walks to flash memory.

This class owns the board-side tables, sinks and timing math; the
scheduler lives in :mod:`repro.core.scheduler` and orchestration in
:mod:`repro.core.flashwalker`.
"""

from __future__ import annotations

import numpy as np

from ..common.config import FlashWalkerConfig
from ..common.errors import ReproError
from ..common.state import Stateful
from .advance import AdvanceResult
from .dense import DenseVertexTable
from .mapping import SubgraphMappingTable, binary_search_steps
from .query_cache import QueryCacheArray

__all__ = ["BoardAccelerator"]


class BoardAccelerator(Stateful):
    """State of the board-level accelerator."""

    STATE = (
        "completed_pending_bytes",
        "foreigner_pending_bytes",
        "batches",
        "hops",
        "directed_walks",
        "completed_flushes",
        "foreigner_flushes",
    )
    # Restored after the partition's mapping is installed, which resets them.
    PARTS = ("caches",)

    def __init__(self, cfg: FlashWalkerConfig, dense_table: DenseVertexTable):
        self.cfg = cfg
        self.acc = cfg.levels.board
        self.dense_table = dense_table
        self.hot_blocks: list[int] = []
        self.mapping: SubgraphMappingTable | None = None
        self.caches = (
            QueryCacheArray(cfg.n_query_caches, cfg.query_cache_entries)
            if cfg.opt_walk_query
            else None
        )
        #: Bytes accumulated toward the next completed-walk flush.
        self.completed_pending_bytes = 0
        #: Bytes accumulated toward the next foreigner flush.
        self.foreigner_pending_bytes = 0
        #: Optional :class:`~repro.obs.Tracer`; None = no recording.
        self.tracer = None
        # statistics
        self.batches = 0
        self.hops = 0
        self.directed_walks = 0
        self.completed_flushes = 0
        self.foreigner_flushes = 0

    def set_hot_blocks(self, blocks: list[int]) -> None:
        self.hot_blocks = list(blocks)

    def set_mapping(self, mapping: SubgraphMappingTable) -> None:
        """Install the partition's mapping table; query caches reset."""
        self.mapping = mapping
        if self.caches is not None:
            self.caches.invalidate()

    def invalidate_cached_blocks(self, block_ids) -> int:
        """Evict specific blocks from the query caches (chip failover:
        the entries' physical placement is stale).  No-op without
        caches; returns the number of entries removed."""
        if self.caches is None:
            return 0
        return self.caches.invalidate_blocks(block_ids)

    # -- timing ----------------------------------------------------------------------

    def batch_time(self, result: AdvanceResult) -> float:
        """Updater + guider time for hot-subgraph walk updates."""
        upd = (
            (result.hops * self.acc.updater_ops_per_hop + result.bias_steps)
            * self.acc.updater_cycle
            / self.acc.n_updaters
        )
        gid = result.guide_ops * self.acc.guider_cycle / self.acc.n_guiders
        self.batches += 1
        self.hops += result.hops
        t = upd + gid
        tr = self.tracer
        if tr is not None:
            tr.latency("board_batch", t)
        return t

    def query_and_direct(
        self, block_ids: np.ndarray | list[int], scoped: bool
    ) -> tuple[float, int, int, int]:
        """Cost of resolving ``len(block_ids)`` walk queries.

        ``scoped`` means the walks arrived tagged by the channel's
        approximate search, so a miss searches only ``range_subgraphs``
        entries instead of the whole table.  Returns (time, cache hits,
        cache misses, total search steps).  Binary searches contend for
        ``table_ports``; cache probes and queue moves use the full guider
        array.
        """
        if self.mapping is None:
            raise ReproError("board mapping table not installed")
        n = len(block_ids)
        if n == 0:
            return 0.0, 0, 0, 0
        scope = (
            min(self.cfg.range_subgraphs, self.mapping.n_entries)
            if scoped
            else self.mapping.n_entries
        )
        steps_per_search = binary_search_steps(scope)
        if self.caches is not None:
            hits, misses = self.caches.probe_batch(block_ids)
            searches = misses
            probe_ops = n  # one cache probe per walk
        else:
            hits, misses = 0, n
            searches = n
            probe_ops = 0
        total_steps = searches * steps_per_search
        search_time = (
            total_steps * self.acc.guider_cycle / max(1, self.cfg.table_ports)
        )
        # probe + move-to-queue ops distribute over all guiders
        simple_time = (probe_ops + n) * self.acc.guider_cycle / self.acc.n_guiders
        self.directed_walks += n
        return search_time + simple_time, hits, misses, total_steps

    def dense_check_time(self, n_walks: int, n_probes: int) -> float:
        """Bloom query per walk + hash probe per positive."""
        ops = n_walks + n_probes
        return ops * self.acc.guider_cycle / self.acc.n_guiders

    # -- write-back sinks ---------------------------------------------------------------

    def add_completed(self, n_walks: int) -> int:
        """Buffer completed walks; returns bytes to flush now (0 if none)."""
        if n_walks < 0:
            raise ReproError(f"negative walk count {n_walks}")
        self.completed_pending_bytes += n_walks * self.cfg.walk_bytes
        tr = self.tracer
        if tr is not None:
            tr.highwater("buf.completed_bytes", self.completed_pending_bytes)
        if self.completed_pending_bytes >= self.cfg.completed_buffer_bytes:
            out = self.completed_pending_bytes
            self.completed_pending_bytes = 0
            self.completed_flushes += 1
            return out
        return 0

    def add_foreigners(self, n_walks: int) -> int:
        """Buffer foreigner walks; returns bytes to flush now (0 if none)."""
        if n_walks < 0:
            raise ReproError(f"negative walk count {n_walks}")
        self.foreigner_pending_bytes += n_walks * self.cfg.walk_bytes
        tr = self.tracer
        if tr is not None:
            tr.highwater("buf.foreigner_bytes", self.foreigner_pending_bytes)
        if self.foreigner_pending_bytes >= self.cfg.foreigner_buffer_bytes:
            out = self.foreigner_pending_bytes
            self.foreigner_pending_bytes = 0
            self.foreigner_flushes += 1
            return out
        return 0

    def drain_sinks(self) -> int:
        """Final flush of both sinks; returns total bytes."""
        out = self.completed_pending_bytes + self.foreigner_pending_bytes
        self.completed_pending_bytes = 0
        self.foreigner_pending_bytes = 0
        return out
