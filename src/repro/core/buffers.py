"""Walk buffering: partition walk buffer, spill pools, sinks.

The board-level accelerator organizes waiting walks by destination
subgraph: one *partition walk buffer* entry per subgraph of the current
partition, in on-board DRAM (Section III-D).  An entry that fills up is
moved to the chip's walk-overflow buffer and flushed to flash; those
walks come back from flash when the subgraph is scheduled.  Dense-walk
entries pack more walks per byte because ``cur`` is implicit in the
block (the beta asymmetry of Eq. 1).

Semantically, walks are never lost: this module tracks exactly which
walks wait where (DRAM vs flash) per block, while the engine charges the
corresponding traffic and latencies.  Pre-walked dense walks carry their
chosen edge index (``pre_edge``), resolved when the block loads.

A partition's buffer is one columnar pool: rows ``src``, ``cur``,
``hop`` and ``pre_edge`` (-1 where a push carried none), plus a
push-start marker per slot.  Each entry owns one contiguous slab of the
pool and appends its walks there in push order.  A slab that runs out
of room moves to one at least twice its size at the top of the pool,
and a drained slab is reused by its block.  When the top has no room,
the other slabs first slide to the front of the pool, in pool order,
each cut to at most twice its walks (and at least ``_FIRST_SLAB``), so
the holes that moved slabs left behind are taken back; a bigger pool is
allocated only if the compacted one is still more than 3/4 full with
the new slab.  The pool so stays within a small multiple of the most
walks it held, and the 2x slack spares a cut slab from growing again at
its next push.  A board insert is one scatter over all of its blocks'
slabs; a chip load is one slice.

Overflow spills an entry's oldest whole pushes, so its spilled walks
are always the prefix ``slab[:spilled]`` and its buffered walks the
rest, ``slab[spilled:fill]``.  The push-start markers are read only to
find where a spill ends.  A drain returns the buffered walks, then the
spilled ones, each in push order.

An entry holding at most :data:`~repro.walks.state.SMALL_BATCH` walks
drains as ``(src, cur, hop)`` records (and a list of pre-walked edges),
and a push takes records as well as a :class:`WalkSet`: a small batch
stays records from the drain that starts its trip through the chip,
channel and board levels to the push that ends it.  Either form lands
in the same pool.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import BufferOverflowError, ReproError
from ..common.state import Stateful
from ..walks.state import SMALL_BATCH, WalkSet

__all__ = ["WalkBatch", "PartitionWalkBuffer", "ForeignerStore"]

#: Slab size (walks) every entry starts with.
_FIRST_SLAB = 8


class WalkBatch:
    """A batch of walks plus optional parallel pre-walked edge indices:
    a WalkSet with an int array, or records with a list of ints."""

    __slots__ = ("walks", "pre_edge")

    def __init__(
        self,
        walks: WalkSet | list[tuple[int, int, int]],
        pre_edge: np.ndarray | list[int] | None = None,
    ):
        if pre_edge is not None:
            if type(walks) is not list:
                pre_edge = np.asarray(pre_edge, dtype=np.int64)
                ok = pre_edge.shape == walks.src.shape
            else:
                ok = len(pre_edge) == len(walks)
            if not ok:
                raise ReproError("pre_edge must align with the walk set")
        self.walks = walks
        self.pre_edge = pre_edge

    def __len__(self) -> int:
        return len(self.walks)


class PartitionWalkBuffer(Stateful):
    """All walk-buffer entries of the current partition, in one pool."""

    STATE = (
        "_base",
        "_size",
        "_fill",
        "_spilled",
        "_pre_walked",
        "spill_events",
        "walks_spilled",
    )

    def __init__(self, first_block: int, last_block: int, entry_capacity: int,
                 dense_entry_capacity: int, is_dense_block: np.ndarray):
        if not 0 <= first_block <= last_block:
            raise BufferOverflowError(
                f"bad block range [{first_block}, {last_block}]"
            )
        if entry_capacity < 1 or dense_entry_capacity < 1:
            raise BufferOverflowError("entry capacities must be >= 1")
        self.first_block = first_block
        self.last_block = last_block
        self.entry_capacity = entry_capacity
        self.dense_entry_capacity = dense_entry_capacity
        n = last_block - first_block + 1
        self.n_blocks = n
        # Per-entry tables, by local block index (plain lists: most
        # pushes and every drain touch one entry): capacity, slab start
        # in the pool, slab size, walks held, how many of those spilled,
        # and whether any push carried pre-walked edges.
        self._limit = [
            dense_entry_capacity if d else entry_capacity
            for d in is_dense_block[first_block : last_block + 1].tolist()
        ]
        self._base = list(range(0, n * _FIRST_SLAB, _FIRST_SLAB))
        self._size = [_FIRST_SLAB] * n
        self._fill = [0] * n
        self._spilled = [0] * n
        self._pre_walked = [False] * n
        #: First pool slot no slab owns.
        self._top = n * _FIRST_SLAB
        self._set_pool(
            np.zeros((4, 2 * self._top), dtype=np.int64),
            np.zeros(2 * self._top, dtype=bool),
        )
        self.spill_events = 0
        self.walks_spilled = 0

    def _set_pool(self, pool: np.ndarray, head: np.ndarray) -> None:
        """Install the pool (rows src, cur, hop, pre_edge) and markers."""
        self._pool = pool
        self._head = head
        self._src, self._cur, self._hop, self._pre = pool

    def _local(self, block_id: int) -> int:
        idx = block_id - self.first_block
        if not 0 <= idx < self.n_blocks:
            raise BufferOverflowError(
                f"block {block_id} outside partition "
                f"[{self.first_block}, {self.last_block}]",
                block=block_id,
            )
        return idx

    def _grow(self, idx: int, need: int) -> None:
        """Move entry ``idx`` to a new slab holding at least ``need``
        walks, at the top of the pool.  With no room there, the other
        slabs are compacted first, and a bigger pool is allocated only
        if the compacted one is still more than 3/4 full with the new
        slab."""
        size = max(2 * self._size[idx], need)
        b, f = self._base[idx], self._fill[idx]
        top = self._top
        if top + size > self._head.size:
            # The slide may overwrite this entry's slab: set it aside.
            cols = self._pool[:, b : b + f].copy()
            heads = self._head[b : b + f].copy()
            top = self._compact(idx)
            cap = self._head.size
            if 4 * (top + size) > 3 * cap:
                cap = max(2 * cap, top + size)
                pool = np.zeros((4, cap), dtype=np.int64)
                head = np.zeros(cap, dtype=bool)
                pool[:, :top] = self._pool[:, :top]
                head[:top] = self._head[:top]
                self._set_pool(pool, head)
        else:
            cols = self._pool[:, b : b + f]
            heads = self._head[b : b + f]
        self._pool[:, top : top + f] = cols
        self._head[top : top + f] = heads
        self._base[idx] = top
        self._size[idx] = size
        self._top = top + size

    def _compact(self, skip: int) -> int:
        """Slide every slab but entry ``skip``'s to the front of the pool,
        in pool order, each cut to at most twice its walks (and at least
        :data:`_FIRST_SLAB`); returns the first slot left free.  A slab
        never grows here, so no slab lands past where it was."""
        base, size, fill = self._base, self._size, self._fill
        pool, head = self._pool, self._head
        top = 0
        for i in sorted(range(self.n_blocks), key=base.__getitem__):
            if i == skip:
                continue
            b, f = base[i], fill[i]
            if f and b != top:
                pool[:, top : top + f] = pool[:, b : b + f]
                head[top : top + f] = head[b : b + f]
            base[i] = top
            size[i] = min(size[i], max(_FIRST_SLAB, 2 * f))
            top += size[i]
        return top

    def _spill(self, idx: int) -> int:
        """Spill entry ``idx``'s oldest whole pushes until its buffered
        walks fit its capacity; returns how many walks spilled."""
        b, f, was = self._base[idx], self._fill[idx], self._spilled[idx]
        lo = f - self._limit[idx]
        # The first push starting at or after ``lo`` stays buffered; with
        # none, every buffered push spills.
        starts = np.flatnonzero(self._head[b + lo : b + f])
        keep = lo + int(starts[0]) if starts.size else f
        self._spilled[idx] = keep
        self.spill_events += 1
        self.walks_spilled += keep - was
        return keep - was

    def push(
        self,
        blocks: np.ndarray | list[int],
        counts: np.ndarray | list[int],
        walks: WalkSet | list[tuple[int, int, int]],
        pre_edge: np.ndarray | list[int] | None = None,
    ) -> list[tuple[int, int]]:
        """Append ``counts[i]`` walks to the entry of ``blocks[i]``.

        ``blocks`` is ascending and distinct; ``walks`` (and the optional
        parallel ``pre_edge``) holds the groups back to back in that
        order.  Each group is one push.  Entries pushed past capacity
        spill their oldest whole pushes; returns ``(block, walks
        spilled)`` for each of them, in ascending block order.  Blocks
        and counts are int arrays or lists of ints; with no groups (and
        no walks) nothing happens.  ``walks`` is a WalkSet with an int
        array ``pre_edge``, or records with a list of ints.
        """
        block_list = blocks if type(blocks) is list else blocks.tolist()
        count_list = counts if type(counts) is list else counts.tolist()
        n = len(walks)
        if sum(count_list) != n:
            raise ReproError(f"group counts sum to {sum(count_list)}, not {n}")
        if not block_list:
            return []
        # Blocks ascend, so checking the last one first leaves the buffer
        # untouched when any block lies past the partition.
        self._local(block_list[-1])
        first, n_blocks = self.first_block, self.n_blocks
        fill, spilled, limit = self._fill, self._spilled, self._limit
        over = []
        prev = -1
        for block, k in zip(block_list, count_list):
            idx = block - first
            if not prev < idx < n_blocks or k < 1:
                self._local(block)
                raise BufferOverflowError(
                    "pushed blocks must be ascending and distinct, "
                    "each with at least one walk"
                )
            prev = idx
            f = fill[idx]
            if f + k > self._size[idx]:
                self._grow(idx, f + k)
            fill[idx] = f + k
            if f + k - spilled[idx] > limit[idx]:
                over.append((block, idx))
            if pre_edge is not None:
                self._pre_walked[idx] = True
        # Slots are read only now: a later group's grow may compact the
        # pool and move an earlier group's slab.
        base = self._base
        pos = [
            base[block - first] + fill[block - first] - k
            for block, k in zip(block_list, count_list)
        ]
        head = self._head
        pre = -1 if pre_edge is None else pre_edge
        if type(walks) is list:
            # Records: slot by slot, group after group.
            src, cur, hop, pre_col = self._src, self._cur, self._hop, self._pre
            j = 0
            for p, k in zip(pos, count_list):
                for q in range(p, p + k):
                    src[q], cur[q], hop[q] = walks[j]
                    pre_col[q] = pre if pre_edge is None else pre_edge[j]
                    head[q] = False
                    j += 1
                head[p] = True
        elif len(pos) == 1:
            p = pos[0]
            q = p + n
            self._src[p:q] = walks.src
            self._cur[p:q] = walks.cur
            self._hop[p:q] = walks.hop
            self._pre[p:q] = pre
            head[p:q] = False
            head[p] = True
        else:
            # Walk j of group i lands at pos[i] + j - (group i's first walk).
            pos = np.array(pos)
            counts = np.asarray(counts)
            ends = counts.cumsum()
            dest = np.repeat(pos - ends + counts, counts) + np.arange(n)
            self._src[dest] = walks.src
            self._cur[dest] = walks.cur
            self._hop[dest] = walks.hop
            self._pre[dest] = pre
            head[dest] = False
            head[pos] = True
        return [(block, self._spill(idx)) for block, idx in over]

    def drain(self, block_id: int) -> tuple[WalkBatch, int, int]:
        """Take all walks waiting for ``block_id``: (batch, n_buffered,
        n_spilled), buffered walks first, each side in push order.  The
        batch's ``pre_edge`` is None unless a push to the entry carried
        pre-walked edges.  An entry of at most :data:`SMALL_BATCH` walks
        drains as records, with a list ``pre_edge``."""
        idx = self._local(block_id)
        f = self._fill[idx]
        if not f:
            return WalkBatch([]), 0, 0
        b, ns = self._base[idx], self._spilled[idx]
        pool = self._pool
        if f <= SMALL_BATCH:
            src, cur, hop, pre = pool[:, b : b + f].tolist()
            if ns:
                src = src[ns:] + src[:ns]
                cur = cur[ns:] + cur[:ns]
                hop = hop[ns:] + hop[:ns]
                pre = pre[ns:] + pre[:ns]
                self._spilled[idx] = 0
            self._fill[idx] = 0
            if self._pre_walked[idx]:
                self._pre_walked[idx] = False
            else:
                pre = None
            return WalkBatch(list(zip(src, cur, hop)), pre), f - ns, ns
        if ns:
            cols = np.concatenate(
                (pool[:, b + ns : b + f], pool[:, b : b + ns]), axis=1
            )
            self._spilled[idx] = 0
        else:
            cols = pool[:, b : b + f].copy()
        self._fill[idx] = 0
        pre = None
        if self._pre_walked[idx]:
            self._pre_walked[idx] = False
            pre = cols[3]
        return WalkBatch(WalkSet.wrap(cols[0], cols[1], cols[2]), pre), f - ns, ns

    def counts(self, block_id: int) -> tuple[int, int]:
        """(buffered, spilled) walks waiting for ``block_id``."""
        idx = self._local(block_id)
        return self._fill[idx] - self._spilled[idx], self._spilled[idx]

    @property
    def total_walks(self) -> int:
        return sum(self._fill)

    def blocks_with_walks(self) -> list[int]:
        return [i + self.first_block for i, f in enumerate(self._fill) if f]

    def occupancy_errors(self) -> list[str]:
        """Declared-capacity violations, one message per bad entry.

        ``push`` spills past-capacity pushes immediately, so any entry
        whose buffered side exceeds its capacity (or with a negative
        count) indicates corrupted accounting.  Used by the service
        layer's online invariant auditor.
        """
        errors = []
        for idx, (f, ns, cap) in enumerate(
            zip(self._fill, self._spilled, self._limit)
        ):
            block = idx + self.first_block
            if f - ns > cap:
                errors.append(
                    f"pwb entry {block}: buffered {f - ns} exceeds capacity {cap}"
                )
            if f - ns < 0 or ns < 0:
                errors.append(f"pwb entry {block}: negative counts ({f - ns}, {ns})")
        return errors

    def state(self) -> dict:
        """The per-entry tables and a copy of the pool up to its last
        owned slot."""
        return {
            **super().state(),
            "pool": self._pool[:, : self._top].copy(),
            "head": self._head[: self._top].copy(),
        }

    def restore(self, state: dict) -> None:
        """Take on a :meth:`state` capture of the same partition."""
        super().restore(state)
        self._set_pool(state["pool"].copy(), state["head"].copy())
        self._top = state["pool"].shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionWalkBuffer([{self.first_block},{self.last_block}], "
            f"walks={self.total_walks}, spills={self.spill_events})"
        )


class ForeignerStore(Stateful):
    """Per-partition pools of foreigner walks flushed to flash.

    Walks whose destination lies beyond the current partition cannot be
    resolved by the resident mapping table; they are buffered and
    flushed, then re-read when their partition becomes current.
    """

    STATE = ("_counts",)

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise BufferOverflowError(f"need >= 1 partition, got {n_partitions}")
        self.n_partitions = n_partitions
        self._pools: list[list[WalkSet]] = [[] for _ in range(n_partitions)]
        self._counts = np.zeros(n_partitions, dtype=np.int64)

    def push(self, partition_id: int, walks: WalkSet) -> None:
        if not 0 <= partition_id < self.n_partitions:
            raise ReproError(
                f"partition {partition_id} out of range [0, {self.n_partitions})"
            )
        if len(walks):
            self._pools[partition_id].append(walks)
            self._counts[partition_id] += len(walks)

    def drain(self, partition_id: int) -> WalkSet:
        if not 0 <= partition_id < self.n_partitions:
            raise ReproError(
                f"partition {partition_id} out of range [0, {self.n_partitions})"
            )
        walks = WalkSet.concat(self._pools[partition_id])
        self._pools[partition_id] = []
        self._counts[partition_id] = 0
        return walks

    def count(self, partition_id: int) -> int:
        return int(self._counts[partition_id])

    @property
    def total(self) -> int:
        return int(self._counts.sum())

    def partitions_with_walks(self) -> np.ndarray:
        return np.flatnonzero(self._counts > 0)

    def state(self) -> dict:
        return {**super().state(), "pools": _copy_pools(self._pools)}

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._pools = _copy_pools(state["pools"])


def _copy_pools(pools: list[list[WalkSet]]) -> list[list[WalkSet]]:
    return [[w.copy() for w in pool] for pool in pools]
