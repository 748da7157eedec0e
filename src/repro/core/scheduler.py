"""Subgraph scheduling (Section III-D, Eq. 1).

The scoreboard tracks, per subgraph of the current partition, how many
walks wait in the partition walk buffer (``pwb``) and how many were
spilled to flash (``fl``).  Eq. 1's critical degree::

    score_i = (pwb * alpha + fl) * beta    if subgraph i is non-dense
    score_i =  pwb * alpha + fl            if subgraph i is dense

``alpha`` weighs buffered walks (overflow-prone) over spilled ones;
``beta`` discounts dense subgraphs, whose walks pack denser (no ``cur``
stored) and so overflow later.

To avoid sorting all subgraphs, a per-chip **topN list** caches the N
highest-scoring subgraphs on that chip; it is refreshed from the dirty
set only every M walk-insertions per subgraph (Section III-D's
amortization).  A refresh scans only the chip's own blocks, kept in a
per-chip index that is rebuilt whenever block ownership changes.  With
scheduling disabled (Fig. 9 baseline) the scheduler degrades to
most-buffered-walks order, GraphWalker's policy.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import SchedulingError
from ..obs.tracer import PID_BOARD as _PID_BOARD

__all__ = ["SubgraphScheduler"]


class SubgraphScheduler:
    """Scoreboard + per-chip topN lists over one graph partition."""

    def __init__(
        self,
        block_chip: np.ndarray,
        is_dense_block: np.ndarray,
        first_block: int,
        last_block: int,
        n_chips: int,
        alpha: float,
        beta: float,
        top_n: int,
        update_period_m: int,
        use_scores: bool = True,
    ):
        if not 0 <= first_block <= last_block:
            raise SchedulingError(f"bad block range [{first_block}, {last_block}]")
        if alpha <= 0 or beta <= 0:
            raise SchedulingError(f"alpha/beta must be positive ({alpha}, {beta})")
        if top_n < 1 or update_period_m < 1:
            raise SchedulingError("top_n and update_period_m must be >= 1")
        self.first_block = first_block
        self.last_block = last_block
        self.n_blocks = last_block - first_block + 1
        # A copy, never a view: the engine remaps its own ``block_chip``
        # on chip failure and then reports the move through
        # reassign_blocks(), which must still see the old owners.
        self.block_chip = np.array(
            block_chip[first_block : last_block + 1], dtype=np.int64
        )
        self.is_dense = np.asarray(
            is_dense_block[first_block : last_block + 1], dtype=bool
        )
        # Eq. 1's per-block factor: 1 for dense blocks, beta otherwise
        # (x * 1 == x exactly, so scores() matches the two-branch form).
        self._score_factor = np.where(self.is_dense, 1, beta)
        self.n_chips = n_chips
        self.alpha = alpha
        self.beta = beta
        self.top_n = top_n
        self.update_period_m = update_period_m
        self.use_scores = use_scores
        # Per-block state (local indices 0..n_blocks-1).
        self.pwb = np.zeros(self.n_blocks, dtype=np.int64)
        self.fl = np.zeros(self.n_blocks, dtype=np.int64)
        self._inserts_since_update = np.zeros(self.n_blocks, dtype=np.int64)
        # scores()/walk_counts() are recomputed only after a scoreboard
        # mutation; next_subgraph() and _refresh_top() otherwise share
        # the cached arrays (an event-loop hotspot).
        self._scores_cache: np.ndarray | None = None
        self._counts_cache: np.ndarray | None = None
        #: Times scores()/walk_counts() served the cached array.
        self.score_cache_hits = 0
        #: Per chip, its local block indices in ascending order.
        self._chip_blocks: list[np.ndarray] = []
        self.index_chips()
        # Per-chip topN caches: local block indices, lazily refreshed.
        self._top: dict[int, list[int]] = {c: [] for c in range(n_chips)}
        self._dirty: set[int] = set(range(n_chips))
        self.topn_refreshes = 0
        self.topn_updates_deferred = 0
        #: Optional :class:`~repro.obs.Tracer` (with a bound clock, since
        #: the scheduler itself is timeless); None = no recording.
        self.tracer = None

    # -- index helpers ------------------------------------------------------------

    def _local(self, block_id: int) -> int:
        idx = block_id - self.first_block
        if not 0 <= idx < self.n_blocks:
            raise SchedulingError(
                f"block {block_id} outside partition "
                f"[{self.first_block}, {self.last_block}]"
            )
        return idx

    def index_chips(self) -> None:
        """Rebuild the per-chip block index from ``block_chip``; call it
        after every write to ``block_chip``."""
        order = np.argsort(self.block_chip, kind="stable")
        ends = np.cumsum(np.bincount(self.block_chip, minlength=self.n_chips))
        self._chip_blocks = np.split(order, ends[:-1])

    # -- scoreboard updates ---------------------------------------------------------

    def _touch(self) -> None:
        """Invalidate derived-array caches after a scoreboard mutation."""
        self._scores_cache = None
        self._counts_cache = None

    def add_buffered(self, block_ids, counts=1) -> None:
        """Walks inserted into the partition walk buffer.

        ``block_ids`` is one block ID or an ascending array of distinct
        ones, with ``counts`` walks each (a scalar or a parallel array).
        The same as one scalar call per block: the blocks are distinct,
        so their updates do not interact.
        """
        idx = np.atleast_1d(np.asarray(block_ids, dtype=np.int64)) - self.first_block
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim and counts.shape != idx.shape:
            raise SchedulingError(f"{counts.size} counts for {idx.size} blocks")
        if idx.size == 0:
            return
        if counts.min() < 0:
            raise SchedulingError(f"negative count {int(counts.min())}")
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            raise SchedulingError("add_buffered blocks must be ascending and distinct")
        self._local(int(idx[0]) + self.first_block)
        self._local(int(idx[-1]) + self.first_block)
        self._touch()
        self.pwb[idx] += counts
        inserts = self._inserts_since_update[idx] + counts
        # Amortized topN maintenance: only mark dirty every M insertions.
        due = inserts >= self.update_period_m
        inserts[due] = 0
        self._inserts_since_update[idx] = inserts
        n_due = int(np.count_nonzero(due))
        if n_due:
            self._dirty.update(self.block_chip[idx[due]].tolist())
        self.topn_updates_deferred += idx.size - n_due

    def add_spilled(self, block_id: int, count: int = 1) -> None:
        """Walks spilled from the buffer entry to flash."""
        if count < 0:
            raise SchedulingError(f"negative count {count}")
        idx = self._local(block_id)
        if count > self.pwb[idx]:
            raise SchedulingError(
                f"spilling {count} walks but only {self.pwb[idx]} buffered"
            )
        self._touch()
        self.pwb[idx] -= count
        self.fl[idx] += count
        self._dirty.add(int(self.block_chip[idx]))

    def take_walks(self, block_id: int) -> tuple[int, int]:
        """Claim all of a block's walks for loading; returns (pwb, fl)."""
        idx = self._local(block_id)
        pwb, fl = int(self.pwb[idx]), int(self.fl[idx])
        self._touch()
        self.pwb[idx] = 0
        self.fl[idx] = 0
        self._inserts_since_update[idx] = 0
        self._dirty.add(int(self.block_chip[idx]))
        return pwb, fl

    # -- scores ---------------------------------------------------------------------

    def scores(self) -> np.ndarray:
        """Eq. 1 over all blocks of the partition (vectorized).

        The returned array is cached until the next scoreboard mutation;
        callers must treat it as read-only.
        """
        if self._scores_cache is None:
            self._scores_cache = (self.pwb * self.alpha + self.fl) * self._score_factor
        else:
            self.score_cache_hits += 1
        return self._scores_cache

    def walk_counts(self) -> np.ndarray:
        """Pending walks per block (cached; treat as read-only)."""
        if self._counts_cache is None:
            self._counts_cache = self.pwb + self.fl
        else:
            self.score_cache_hits += 1
        return self._counts_cache

    @property
    def total_pending(self) -> int:
        return int(self.pwb.sum() + self.fl.sum())

    # -- selection ----------------------------------------------------------------------

    def _refresh_top(self, chip: int) -> None:
        counts = self.walk_counts()
        mine = self._chip_blocks[chip]
        candidates = mine[counts[mine] > 0]
        if candidates.size == 0:
            self._top[chip] = []
        else:
            key = self.scores() if self.use_scores else counts
            # Stable sort on the negated key: descending by score, ties
            # broken by *lowest* local block ID.  (A reversed ascending
            # stable sort would break ties by highest index, making topN
            # order depend on candidate layout rather than block ID.)
            order = np.argsort(-key[candidates], kind="stable")
            self._top[chip] = candidates[order][: self.top_n].tolist()
        self.topn_refreshes += 1
        self._dirty.discard(chip)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "sched", _PID_BOARD, chip, "topn_refresh",
                args={"entries": len(self._top[chip])},
            )

    def next_subgraph(self, chip: int, exclude: set[int] | None = None) -> int | None:
        """Best block for ``chip`` to load next (global ID), or None.

        ``exclude`` holds block IDs currently loading elsewhere on the
        chip.  Entries with no walks left are skipped and the list is
        refreshed when it runs dry or the chip is dirty.
        """
        if not 0 <= chip < self.n_chips:
            raise SchedulingError(f"chip {chip} out of range [0, {self.n_chips})")
        exclude = exclude or set()
        counts = self.walk_counts()
        for _ in range(2):
            if chip in self._dirty or not self._top[chip]:
                self._refresh_top(chip)
            for idx in self._top[chip]:
                if counts[idx] > 0 and (idx + self.first_block) not in exclude:
                    return idx + self.first_block
            # topN stale (all consumed): force one refresh, then give up.
            if chip not in self._dirty:
                self._dirty.add(chip)
            else:
                break
        return None

    def reassign_blocks(self, block_ids, new_chips) -> None:
        """Move blocks to new owning chips (degraded mode).

        Used when a chip fails and its subgraphs are relocated onto the
        survivors: both the old and new owners' topN caches are marked
        dirty so future :meth:`next_subgraph` calls rebuild them.
        """
        moved = False
        for bid, chip in zip(block_ids, new_chips):
            if not 0 <= chip < self.n_chips:
                raise SchedulingError(
                    f"chip {chip} out of range [0, {self.n_chips})"
                )
            idx = self._local(int(bid))
            old = int(self.block_chip[idx])
            if old == chip:
                continue
            self.block_chip[idx] = chip
            moved = True
            self._dirty.add(old)
            self._dirty.add(int(chip))
            tr = self.tracer
            if tr is not None:
                tr.instant(
                    "sched", _PID_BOARD, int(chip), "block_reassigned",
                    args={"block": int(bid), "from_chip": old},
                )
        if moved:
            self.index_chips()

    def chips_with_work(self) -> np.ndarray:
        """Chip indices that currently own blocks with pending walks."""
        counts = self.walk_counts()
        owners = np.bincount(self.block_chip[counts > 0], minlength=self.n_chips)
        return np.flatnonzero(owners)

    def consistency_errors(self, pwb_buffer) -> list[str]:
        """Scoreboard-vs-buffer divergences, one message per bad block.

        The scoreboard's per-block (pwb, fl) counts must mirror the
        :class:`~repro.core.buffers.PartitionWalkBuffer` exactly at
        every event boundary: ``pwb`` is an entry's buffered walks,
        ``slab[spilled:fill]`` of its slab in the buffer's pool, and
        ``fl`` its spilled prefix, ``slab[:spilled]`` (``_start_load``
        enforces the same on the drain path).  Checks every block either
        side counts walks for.  Used by the service layer's invariant
        auditor.
        """
        errors = []
        if int(self.pwb.min(initial=0)) < 0 or int(self.fl.min(initial=0)) < 0:
            errors.append("scheduler scoreboard has negative counts")
        nonzero = np.flatnonzero((self.pwb != 0) | (self.fl != 0))
        blocks = set((nonzero + self.first_block).tolist())
        blocks.update(pwb_buffer.blocks_with_walks())
        for block in sorted(blocks):
            idx = block - self.first_block
            sb, sf = int(self.pwb[idx]), int(self.fl[idx])
            bb, bf = pwb_buffer.counts(block)
            if (sb, sf) != (bb, bf):
                errors.append(
                    f"block {block}: scheduler ({sb},{sf}) vs buffer ({bb},{bf})"
                )
        return errors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubgraphScheduler(blocks={self.n_blocks}, pending="
            f"{self.total_pending}, refreshes={self.topn_refreshes})"
        )
