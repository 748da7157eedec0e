"""Compressed Sparse Row graph representation.

The whole library operates on :class:`CSRGraph`: an ``offsets`` array of
length ``n+1`` and an ``edges`` array holding destination vertex IDs,
exactly the layout the paper stores in graph blocks (Section III-B).
Optionally a parallel ``weights`` array supports biased random walks.

Everything is NumPy, vectorized, and copy-free where possible (views for
adjacency slices), per the hpc-parallel guide.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import GraphError

__all__ = ["CSRGraph"]

#: Edges :meth:`CSRGraph.from_edge_list` places per step; bounds its
#: sort and scatter temporaries.
_PLACE_CHUNK = 1 << 14


def _as_ids(a) -> np.ndarray:
    """``a`` as an integer array: integer dtypes as given, others int64."""
    a = np.asarray(a)
    if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.intp):
        return a
    return a.astype(np.int64)


class CSRGraph:
    """Directed graph in CSR form.

    Parameters
    ----------
    offsets:
        int64 array of length ``num_vertices + 1``; ``offsets[v]:offsets[v+1]``
        indexes vertex ``v``'s out-edges in ``edges``.
    edges:
        destination vertex IDs (any integer dtype; stored as given).
    weights:
        optional positive float edge weights aligned with ``edges``.
    """

    def __init__(
        self,
        offsets: np.ndarray,
        edges: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        offsets = np.asarray(offsets, dtype=np.int64)
        edges = np.asarray(edges)
        if offsets.ndim != 1 or edges.ndim != 1:
            raise GraphError("offsets and edges must be 1-D arrays")
        if offsets.size == 0:
            raise GraphError("offsets must have length >= 1")
        if offsets[0] != 0:
            raise GraphError(f"offsets[0] must be 0, got {offsets[0]}")
        if offsets[-1] != edges.size:
            raise GraphError(
                f"offsets[-1] ({offsets[-1]}) must equal len(edges) ({edges.size})"
            )
        if offsets.size > 1 and np.any(np.diff(offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        if edges.size and not np.issubdtype(edges.dtype, np.integer):
            raise GraphError(f"edges must be an integer array, got {edges.dtype}")
        n = offsets.size - 1
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GraphError(
                f"edge destinations must be in [0, {n}), got range "
                f"[{edges.min()}, {edges.max()}]"
            )
        self.offsets = offsets
        self.edges = edges
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != edges.shape:
                raise GraphError(
                    f"weights shape {weights.shape} != edges shape {edges.shape}"
                )
            if weights.size and weights.min() <= 0:
                raise GraphError("edge weights must be strictly positive")
        self.weights = weights

    # -- basic properties -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.offsets.size - 1

    @property
    def num_edges(self) -> int:
        return int(self.edges.size)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def out_degree(self, v: int | np.ndarray) -> np.ndarray | int:
        """Out-degree of vertex ``v`` (scalar or vectorized)."""
        deg = self.offsets[np.asarray(v) + 1] - self.offsets[np.asarray(v)]
        if np.isscalar(v) or (isinstance(v, np.ndarray) and v.ndim == 0):
            return int(deg)
        return deg

    def out_degrees(self) -> np.ndarray:
        """All out-degrees as an int64 array of length ``num_vertices``."""
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """View (no copy) of vertex ``v``'s out-neighbors."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.edges[self.offsets[v] : self.offsets[v + 1]]

    def in_degrees(self) -> np.ndarray:
        """All in-degrees (counts of incoming edges)."""
        return np.bincount(self.edges, minlength=self.num_vertices).astype(np.int64)

    # -- conversions -------------------------------------------------------------

    @classmethod
    def from_edge_list(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int | None = None,
        weights: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel source/destination arrays.

        Each vertex's out-edges keep their input order (a stable sort by
        source).  Edges are placed by counting, :data:`_PLACE_CHUNK` at a
        time, straight into the output column, so beyond the caller's
        arrays the build holds about one int64 edge column.  Integer IDs
        of any width are read as given; ``edges`` is always int64.
        """
        src = _as_ids(src)
        dst = _as_ids(dst)
        if src.shape != dst.shape:
            raise GraphError(f"src shape {src.shape} != dst shape {dst.shape}")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphError("weights must align with edges")
        m = src.size
        if m and src.min() < 0:
            raise GraphError("negative source vertex")
        if num_vertices is None:
            num_vertices = max(int(src.max()), int(dst.max())) + 1 if m else 0
        elif m and (top := int(src.max())) >= num_vertices:
            raise GraphError(f"source vertex {top} >= num_vertices {num_vertices}")
        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=offsets[1:])
        fill = offsets[:-1].copy()  # next free slot of each vertex
        edges = np.empty(m, dtype=np.int64)
        w_out = None if weights is None else np.empty(m, dtype=np.float64)
        for lo in range(0, m, _PLACE_CHUNK):
            hi = min(lo + _PLACE_CHUNK, m)
            order = np.argsort(src[lo:hi], kind="stable")
            run_src = src[lo:hi][order]
            # Each edge's rank within its run of equal sources.
            new_run = np.empty(hi - lo, dtype=bool)
            new_run[0] = True
            np.not_equal(run_src[1:], run_src[:-1], out=new_run[1:])
            starts = np.flatnonzero(new_run)
            lengths = np.diff(starts, append=hi - lo)
            rank = np.arange(hi - lo) - np.repeat(starts, lengths)
            slot = fill[run_src] + rank
            edges[slot] = dst[lo:hi][order]
            if w_out is not None:
                w_out[slot] = weights[lo:hi][order]
            fill[run_src[starts]] += lengths
        return cls(offsets, edges, w_out)

    def to_edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays; inverse of :meth:`from_edge_list` up to order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())
        return src, self.edges.astype(np.int64)

    def with_uniform_weights(self) -> "CSRGraph":
        """Copy of this graph with all-ones weights (for biased-walk tests)."""
        return CSRGraph(self.offsets, self.edges, np.ones(self.num_edges))

    # -- memory accounting ---------------------------------------------------------

    def csr_bytes(self, vid_bytes: int = 4) -> int:
        """On-disk CSR footprint with ``vid_bytes``-wide IDs (Table IV)."""
        if vid_bytes <= 0:
            raise GraphError(f"vid_bytes must be positive, got {vid_bytes}")
        return (self.num_vertices + 1) * vid_bytes + self.num_edges * vid_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        w = ", weighted" if self.is_weighted else ""
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}{w})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        same = np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.edges, other.edges
        )
        if not same:
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None:
            return np.allclose(self.weights, other.weights)
        return True

    __hash__ = None  # mutable arrays -> unhashable
