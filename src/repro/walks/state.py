"""Walk state: records for small batches, structure-of-arrays for large.

A walk record is exactly the paper's (Section III-B): ``src`` (origin
vertex), ``cur`` (current vertex), ``hop`` (remaining hops).  A batch of
more than :data:`SMALL_BATCH` walks is a :class:`WalkSet` of three
parallel NumPy arrays, so the engines advance thousands of walks per
vectorized operation instead of object-per-walk (hpc-parallel guide:
SoA + vectorize the hot loop).  A batch of at most :data:`SMALL_BATCH`
walks is a list of ``(src, cur, hop)`` tuples of Python ints: most of
the engine's batches hold 1-3 walks, where NumPy's fixed cost per call
would dominate.  :func:`as_records`, :func:`as_walkset` and
:func:`concat_walks` move a batch between the two forms; both hold the
same walks in the same order.

The public constructor validates its arrays.  Paths whose outputs are
valid by construction (:meth:`WalkSet.select`, :meth:`WalkSet.concat`,
:meth:`WalkSet.split`, and the advancement kernel's outputs) go through
:meth:`WalkSet.wrap`, which skips the checks: subsets and
concatenations of aligned int64 arrays with no negative hop count are
aligned int64 arrays with no negative hop count.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import WalkError

__all__ = ["SMALL_BATCH", "WalkSet", "as_records", "as_walkset", "concat_walks"]

#: Largest batch carried as records.  Measured on batch-skewed hops/s
#: with the scalar advance kernel: 4, 16 and 64 walks gave 184k, 201k
#: and 197k.
SMALL_BATCH = 16


class WalkSet:
    """A batch of walk records (SoA: ``src``, ``cur``, ``hop``)."""

    __slots__ = ("src", "cur", "hop")

    def __init__(self, src: np.ndarray, cur: np.ndarray, hop: np.ndarray):
        src = np.asarray(src, dtype=np.int64)
        cur = np.asarray(cur, dtype=np.int64)
        hop = np.asarray(hop, dtype=np.int64)
        if not (src.shape == cur.shape == hop.shape) or src.ndim != 1:
            raise WalkError(
                f"walk arrays must be 1-D and aligned, got shapes "
                f"{src.shape}/{cur.shape}/{hop.shape}"
            )
        if hop.size and hop.min() < 0:
            raise WalkError("negative remaining hop count")
        self.src = src
        self.cur = cur
        self.hop = hop

    # -- constructors -----------------------------------------------------------

    @classmethod
    def wrap(cls, src: np.ndarray, cur: np.ndarray, hop: np.ndarray) -> "WalkSet":
        """Wrap arrays already known to be aligned 1-D int64 with no
        negative hop count, without re-validating them (trusted paths
        only; everything else uses the constructor)."""
        ws = object.__new__(cls)
        ws.src = src
        ws.cur = cur
        ws.hop = hop
        return ws

    @classmethod
    def from_records(cls, records: list[tuple[int, int, int]]) -> "WalkSet":
        """Wrap ``(src, cur, hop)`` tuples of Python ints taken from
        valid walk records (trusted like :meth:`wrap`)."""
        cols = np.array(records, dtype=np.int64).reshape(-1, 3).T.copy()
        return cls.wrap(cols[0], cols[1], cols[2])

    @classmethod
    def empty(cls) -> "WalkSet":
        z = np.zeros(0, dtype=np.int64)
        return cls.wrap(z, z.copy(), z.copy())

    @classmethod
    def start(cls, starts: np.ndarray, length: int) -> "WalkSet":
        """Fresh walks at ``starts`` with ``length`` hops to go."""
        starts = np.asarray(starts, dtype=np.int64)
        if length < 0:
            raise WalkError(f"negative walk length {length}")
        return cls(
            starts.copy(),
            starts.copy(),
            np.full(starts.shape, length, dtype=np.int64),
        )

    @classmethod
    def concat(cls, sets: list["WalkSet"]) -> "WalkSet":
        """Concatenate walk sets (empty-safe)."""
        sets = [s for s in sets if s.src.size]
        if not sets:
            return cls.empty()
        if len(sets) == 1:
            return sets[0]
        return cls.wrap(
            np.concatenate([s.src for s in sets]),
            np.concatenate([s.cur for s in sets]),
            np.concatenate([s.hop for s in sets]),
        )

    # -- basics ---------------------------------------------------------------------

    def __len__(self) -> int:
        return self.src.size

    def select(self, mask_or_idx: np.ndarray) -> "WalkSet":
        """Subset by boolean mask or index array (copies)."""
        return WalkSet.wrap(
            self.src[mask_or_idx], self.cur[mask_or_idx], self.hop[mask_or_idx]
        )

    def split(self, mask: np.ndarray) -> tuple["WalkSet", "WalkSet"]:
        """(walks where mask, walks where ~mask)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.src.shape:
            raise WalkError(
                f"mask shape {mask.shape} != walk count {self.src.shape}"
            )
        return self.select(mask), self.select(~mask)

    def records(self) -> list[tuple[int, int, int]]:
        """The walks as ``(src, cur, hop)`` tuples of Python ints."""
        return list(zip(self.src.tolist(), self.cur.tolist(), self.hop.tolist()))

    def copy(self) -> "WalkSet":
        return WalkSet(self.src.copy(), self.cur.copy(), self.hop.copy())

    def nbytes(self, walk_bytes: int) -> int:
        """Buffer footprint at ``walk_bytes`` per record."""
        if walk_bytes <= 0:
            raise WalkError(f"walk_bytes must be positive, got {walk_bytes}")
        return len(self) * walk_bytes

    @property
    def finished(self) -> np.ndarray:
        """Mask of walks with no hops remaining."""
        return self.hop == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalkSet(n={len(self)})"


def as_records(walks: WalkSet | list) -> list[tuple[int, int, int]]:
    """The batch ``walks`` as records (a records batch as it is)."""
    return walks if type(walks) is list else walks.records()


def as_walkset(walks: WalkSet | list) -> WalkSet:
    """The batch ``walks`` as a :class:`WalkSet` (a WalkSet as it is)."""
    return WalkSet.from_records(walks) if type(walks) is list else walks


def concat_walks(parts: list) -> WalkSet | list:
    """Concatenate batches of either form, in order: records when the
    total is at most :data:`SMALL_BATCH`, else a :class:`WalkSet`."""
    if sum(map(len, parts)) <= SMALL_BATCH:
        out: list[tuple[int, int, int]] = []
        for p in parts:
            out += p if type(p) is list else p.records()
        return out
    return WalkSet.concat([as_walkset(p) for p in parts])
