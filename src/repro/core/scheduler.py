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

A chip owns a few dozen blocks at most and a board insert touches a
handful, so the state is plain Python ints and lists: a NumPy call per
update would cost more than the update.  Running pending counts per
chip and in total answer ``chips_with_work`` and ``total_pending``
without a scan.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import SchedulingError
from ..common.state import Stateful
from ..obs.tracer import PID_BOARD as _PID_BOARD

__all__ = ["SubgraphScheduler"]


class SubgraphScheduler(Stateful):
    """Scoreboard + per-chip topN lists over one graph partition."""

    # The scoreboard, placement and topN state; topN lists are replaced
    # on refresh, never edited, so a copy of ``_top`` may share them.
    STATE = (
        "pwb",
        "fl",
        "_inserts_since_update",
        "block_chip",
        "_top",
        "_dirty",
        "topn_refreshes",
        "topn_updates_deferred",
    )

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
        self.block_chip: list[int] = np.asarray(
            block_chip[first_block : last_block + 1], dtype=np.int64
        ).tolist()
        bad = [c for c in self.block_chip if not 0 <= c < n_chips]
        if bad:
            raise SchedulingError(
                f"block owner {bad[0]} out of range [0, {n_chips})"
            )
        # Eq. 1's per-block factor: 1 for dense blocks, beta otherwise
        # (x * 1 == x exactly, so score() matches the two-branch form).
        self._score_factor = [
            1 if d else beta
            for d in np.asarray(is_dense_block[first_block : last_block + 1]).tolist()
        ]
        self.n_chips = n_chips
        self.alpha = alpha
        self.beta = beta
        self.top_n = top_n
        self.update_period_m = update_period_m
        self.use_scores = use_scores
        # Per-block state (local indices 0..n_blocks-1).
        self.pwb = [0] * self.n_blocks
        self.fl = [0] * self.n_blocks
        self._inserts_since_update = [0] * self.n_blocks
        #: Per chip, its local block indices in ascending order.
        self._chip_blocks: list[list[int]] = []
        #: Per chip, walks pending on its blocks; their sum; and the
        #: chips whose count is non-zero.
        self._chip_pending: list[int] = []
        self._total = 0
        self._working: set[int] = set()
        self._reindex()
        # Per-chip topN caches: local block indices, lazily refreshed.
        # A refresh replaces a chip's list and never edits it in place.
        self._top: list[list[int]] = [[] for _ in range(n_chips)]
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

    def _reindex(self) -> None:
        """Rebuild the per-chip block index and pending counts from the
        per-block state; run after every write to ``block_chip``."""
        self._chip_blocks = [[] for _ in range(self.n_chips)]
        self._chip_pending = [0] * self.n_chips
        for idx, chip in enumerate(self.block_chip):
            self._chip_blocks[chip].append(idx)
            self._chip_pending[chip] += self.pwb[idx] + self.fl[idx]
        self._total = sum(self._chip_pending)
        self._working = {c for c, n in enumerate(self._chip_pending) if n}

    # -- scoreboard updates ---------------------------------------------------------

    def add_buffered(self, block_ids, counts=1) -> None:
        """Walks inserted into the partition walk buffer.

        ``block_ids`` is one block ID or an ascending array of distinct
        ones, with ``counts`` walks each (a scalar or a parallel array).
        The same as one scalar call per block: the blocks are distinct,
        so their updates do not interact.
        """
        ids = block_ids.tolist() if hasattr(block_ids, "tolist") else block_ids
        if not isinstance(ids, (list, tuple)):
            ids = [ids]
        n = len(ids)
        counts = counts.tolist() if hasattr(counts, "tolist") else counts
        if not isinstance(counts, (list, tuple)):
            counts = [counts] * n
        elif len(counts) != n:
            raise SchedulingError(f"{len(counts)} counts for {n} blocks")
        if n == 0:
            return
        if min(counts) < 0:
            raise SchedulingError(f"negative count {min(counts)}")
        for a, b in zip(ids, ids[1:]):
            if a >= b:
                raise SchedulingError(
                    "add_buffered blocks must be ascending and distinct"
                )
        self._local(ids[0])
        self._local(ids[-1])
        first, m = self.first_block, self.update_period_m
        pwb, inserts = self.pwb, self._inserts_since_update
        owner, pending = self.block_chip, self._chip_pending
        n_due = 0
        for block, c in zip(ids, counts):
            idx = block - first
            pwb[idx] += c
            if c:
                pending[owner[idx]] += c
                self._working.add(owner[idx])
            # Amortized topN maintenance: only mark dirty every M insertions.
            k = inserts[idx] + c
            if k >= m:
                inserts[idx] = 0
                n_due += 1
                self._dirty.add(owner[idx])
            else:
                inserts[idx] = k
        self._total += sum(counts)
        self.topn_updates_deferred += n - n_due

    def add_spilled(self, block_id: int, count: int = 1) -> None:
        """Walks spilled from the buffer entry to flash."""
        count = int(count)
        if count < 0:
            raise SchedulingError(f"negative count {count}")
        idx = self._local(block_id)
        if count > self.pwb[idx]:
            raise SchedulingError(
                f"spilling {count} walks but only {self.pwb[idx]} buffered"
            )
        self.pwb[idx] -= count
        self.fl[idx] += count
        self._dirty.add(self.block_chip[idx])

    def take_walks(self, block_id: int) -> tuple[int, int]:
        """Claim all of a block's walks for loading; returns (pwb, fl)."""
        idx = self._local(block_id)
        pwb, fl = self.pwb[idx], self.fl[idx]
        self.pwb[idx] = self.fl[idx] = self._inserts_since_update[idx] = 0
        chip = self.block_chip[idx]
        self._chip_pending[chip] -= pwb + fl
        if not self._chip_pending[chip]:
            self._working.discard(chip)
        self._total -= pwb + fl
        self._dirty.add(chip)
        return pwb, fl

    # -- scores ---------------------------------------------------------------------

    def score(self, block_id: int) -> float:
        """Eq. 1 for one block of the partition."""
        return self._score(self._local(block_id))

    def _score(self, idx: int) -> float:
        # Same IEEE operations, in the same order, as the array form
        # (pwb * alpha + fl) * factor.
        return (self.pwb[idx] * self.alpha + self.fl[idx]) * self._score_factor[idx]

    @property
    def total_pending(self) -> int:
        return self._total

    def pending_on(self, chip: int) -> int:
        """Walks pending on ``chip``'s blocks (its running count)."""
        return self._chip_pending[chip]

    # -- selection ----------------------------------------------------------------------

    def _refresh_top(self, chip: int) -> None:
        pwb, fl = self.pwb, self.fl
        top = [idx for idx in self._chip_blocks[chip] if pwb[idx] or fl[idx]]
        if len(top) > 1:
            # Descending by key, ties broken by *lowest* local block ID:
            # the index ascends and a reverse sort keeps equal keys in
            # their original order, like a stable sort on the negated
            # key.  Without SS the key is the raw walk count.
            if self.use_scores:
                top.sort(key=self._score, reverse=True)
            else:
                top.sort(key=lambda idx: pwb[idx] + fl[idx], reverse=True)
            del top[self.top_n :]
        self._top[chip] = top
        self.topn_refreshes += 1
        self._dirty.discard(chip)
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "sched", _PID_BOARD, chip, "topn_refresh",
                args={"entries": len(top)},
            )

    def next_subgraph(self, chip: int, exclude: set[int] | None = None) -> int | None:
        """Best block for ``chip`` to load next (global ID), or None.

        ``exclude`` holds block IDs currently loading elsewhere on the
        chip.  Entries with no walks left are skipped and the list is
        refreshed when it runs dry or the chip is dirty.
        """
        if not 0 <= chip < self.n_chips:
            raise SchedulingError(f"chip {chip} out of range [0, {self.n_chips})")
        pwb, fl, first = self.pwb, self.fl, self.first_block
        for _ in range(2):
            if chip in self._dirty or not self._top[chip]:
                self._refresh_top(chip)
            for idx in self._top[chip]:
                if (pwb[idx] or fl[idx]) and not (exclude and idx + first in exclude):
                    return idx + first
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
        dirty so future :meth:`next_subgraph` calls rebuild them.  Every
        pair is checked before any moves, so a bad one changes nothing.
        """
        moves = []
        for bid, chip in zip(block_ids, new_chips):
            if not 0 <= chip < self.n_chips:
                raise SchedulingError(
                    f"chip {chip} out of range [0, {self.n_chips})"
                )
            moves.append((self._local(int(bid)), int(chip)))
        moved = False
        for idx, chip in moves:
            old = self.block_chip[idx]
            if old == chip:
                continue
            self.block_chip[idx] = chip
            moved = True
            self._dirty.add(old)
            self._dirty.add(chip)
            tr = self.tracer
            if tr is not None:
                tr.instant(
                    "sched", _PID_BOARD, chip, "block_reassigned",
                    args={"block": idx + self.first_block, "from_chip": old},
                )
        if moved:
            self._reindex()

    def chips_with_work(self) -> list[int]:
        """Ascending chip indices that own blocks with pending walks."""
        return sorted(self._working)

    # -- checkpoints ------------------------------------------------------------------

    def restore(self, state: dict) -> None:
        """Take on a ``state()`` capture of the same partition."""
        super().restore(state)
        self._reindex()

    def consistency_errors(self, pwb_buffer) -> list[str]:
        """Scoreboard-vs-buffer divergences, one message per bad block.

        The scoreboard's per-block (pwb, fl) counts must mirror the
        :class:`~repro.core.buffers.PartitionWalkBuffer` exactly at
        every event boundary: ``pwb`` is an entry's buffered walks,
        ``slab[spilled:fill]`` of its slab in the buffer's pool, and
        ``fl`` its spilled prefix, ``slab[:spilled]`` (``_start_load``
        enforces the same on the drain path).  Checks every block either
        side counts walks for, and the running per-chip and total
        pending counts against the per-block sums.  Used by the service
        layer's invariant auditor.
        """
        errors = []
        pwb, fl, first = self.pwb, self.fl, self.first_block
        if min(pwb, default=0) < 0 or min(fl, default=0) < 0:
            errors.append("scheduler scoreboard has negative counts")
        sums = [0] * self.n_chips
        held = set()
        for idx, chip in enumerate(self.block_chip):
            if pwb[idx] or fl[idx]:
                sums[chip] += pwb[idx] + fl[idx]
                held.add(idx + first)
        if sums != self._chip_pending:
            errors.append(
                f"scheduler per-chip pending {self._chip_pending} "
                f"vs per-block sums {sums}"
            )
        working = [c for c, n in enumerate(sums) if n]
        if sorted(self._working) != working:
            errors.append(
                f"scheduler chips with work {sorted(self._working)} "
                f"vs per-block sums {working}"
            )
        if self._total != sum(sums):
            errors.append(
                f"scheduler total pending {self._total} "
                f"vs per-block sum {sum(sums)}"
            )
        for block in sorted(held.union(pwb_buffer.blocks_with_walks())):
            if not first <= block <= self.last_block:
                errors.append(
                    f"buffer block {block} outside partition "
                    f"[{first}, {self.last_block}]"
                )
                continue
            sb, sf = pwb[block - first], fl[block - first]
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
