"""Graph partitioning into fixed-size graph blocks (subgraphs).

Section III-D: "A subgraph stores its vertices and their out-edges in a
flash memory block with the fixed size and the flash memory block is
referred to as a graph block.  Therefore, a subgraph contains varied
number of vertices."  Blocks cover *contiguous vertex ID ranges*, which is
what makes the subgraph mapping table a sorted-range binary search.

A vertex whose edges cannot fit one block is **dense** (Section III-D,
pre-walking): its out-edges are split across several consecutive blocks,
each holding an edge slice; the dense-vertices mapping table records the
block list metadata (count, first block ID, last block's out-degree).

The partitioner is O(#blocks) thanks to a galloping ``searchsorted`` over
the prefix-summed byte cost, so multi-million-vertex graphs partition in
milliseconds (hpc-parallel guide: vectorize the hot loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import PartitionError
from .csr import CSRGraph

__all__ = ["DenseVertexMeta", "GraphPartitioning", "partition_graph"]

#: ID-units reserved per block for in-block metadata (block header: first
#: vertex ID + vertex count), leaving the rest for offsets + edges.
_BLOCK_HEADER_UNITS = 2


@dataclass(frozen=True)
class DenseVertexMeta:
    """Dense-vertex mapping entry (Section III-D).

    ``vertex``: the dense vertex ID. ``first_block``: ID of its first
    graph block. ``n_blocks``: how many consecutive blocks hold its edges.
    ``last_block_degree``: out-degree stored in the final block.
    ``edges_per_block``: edge-slice size of every block but the last.
    """

    vertex: int
    first_block: int
    n_blocks: int
    last_block_degree: int
    edges_per_block: int

    @property
    def out_degree(self) -> int:
        return (self.n_blocks - 1) * self.edges_per_block + self.last_block_degree


@dataclass
class GraphPartitioning:
    """Result of :func:`partition_graph`.

    Blocks are numbered 0..num_blocks-1 in vertex-ID order.  Per-block
    arrays (all length ``num_blocks``):

    * ``block_lo`` / ``block_hi`` — inclusive vertex range of each block
      (for dense blocks, ``lo == hi`` == the dense vertex).
    * ``block_edges`` — number of edges stored in the block (the "sum of
      out-degree of the subgraph" field of the mapping table).
    * ``block_edge_lo`` — for dense blocks, the start of the edge slice
      within the dense vertex's adjacency; 0 for normal blocks.
    * ``is_dense_block`` — True for blocks that belong to a dense vertex.
    """

    graph: CSRGraph
    subgraph_bytes: int
    vid_bytes: int
    block_lo: np.ndarray
    block_hi: np.ndarray
    block_edges: np.ndarray
    block_edge_lo: np.ndarray
    is_dense_block: np.ndarray
    dense_meta: dict[int, DenseVertexMeta] = field(default_factory=dict)

    # -- sizes -----------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return int(self.block_lo.size)

    @property
    def num_dense_vertices(self) -> int:
        return len(self.dense_meta)

    def block_bytes(self, block_id: int) -> int:
        """Stored bytes of one block (header + offsets + edge slice; a
        weighted graph's blocks also hold the CL entries)."""
        self._check_block(block_id)
        nv = int(self.block_hi[block_id] - self.block_lo[block_id] + 1)
        edge_units = 2 if self.graph.is_weighted else 1
        units = (
            _BLOCK_HEADER_UNITS
            + (nv + 1)
            + edge_units * int(self.block_edges[block_id])
        )
        return units * self.vid_bytes

    # -- lookup (the subgraph mapping table semantics) ----------------------------

    def block_of_vertex(self, v: int | np.ndarray) -> np.ndarray | int:
        """Block ID(s) containing vertex ``v`` (first block if dense).

        This is semantically the binary search over the subgraph mapping
        table; the accelerator-side *timing* of that search is modeled in
        :mod:`repro.core.mapping`.
        """
        scalar = type(v) is not np.ndarray and np.isscalar(v)
        varr = np.atleast_1d(np.asarray(v, dtype=np.int64))
        if varr.size and (varr.min() < 0 or varr.max() >= self.graph.num_vertices):
            raise PartitionError(
                f"vertex out of range [0, {self.graph.num_vertices})"
            )
        idx = self.vertex_block[varr]
        if scalar:
            return int(idx[0])
        return idx

    @property
    def vertex_block(self) -> np.ndarray:
        """Read-only vertex -> block table, built on first use (a dense
        vertex maps to its first block).  Indexing it skips
        :meth:`block_of_vertex`'s range check."""
        table = self._vertex_block
        if table is None:
            table = np.searchsorted(
                self.block_lo, np.arange(self.graph.num_vertices), side="right"
            ) - 1
            # A vertex inside a dense vertex's block run maps to the run's
            # first block: back up over earlier slices of the same vertex.
            first = self._dense_first_block
            if first is not None:
                table = first[table]
            table = table.astype(np.int64, copy=False)
            table.flags.writeable = False
            self._vertex_block = table
        return table

    @property
    def dense_vertex_mask(self) -> np.ndarray:
        """Read-only per-vertex mask of dense vertices, built on first
        use."""
        mask = self._dense_vertex_mask
        if mask is None:
            mask = np.zeros(self.graph.num_vertices, dtype=bool)
            mask[np.fromiter(self.dense_meta, dtype=np.int64)] = True
            mask.flags.writeable = False
            self._dense_vertex_mask = mask
        return mask

    def is_dense_vertex(self, v: int) -> bool:
        return int(v) in self.dense_meta

    # -- groupings -----------------------------------------------------------------

    def partition_of_block(self, block_id: np.ndarray | int, partition_subgraphs: int):
        """Graph-partition index of block(s) (Section III-D)."""
        if partition_subgraphs < 1:
            raise PartitionError("partition_subgraphs must be >= 1")
        return np.asarray(block_id) // partition_subgraphs

    def num_partitions(self, partition_subgraphs: int) -> int:
        if partition_subgraphs < 1:
            raise PartitionError("partition_subgraphs must be >= 1")
        return -(-self.num_blocks // partition_subgraphs)

    def partition_block_range(
        self, partition_id: int, partition_subgraphs: int
    ) -> tuple[int, int]:
        """[first, last] block IDs of a partition (inclusive)."""
        n = self.num_partitions(partition_subgraphs)
        if not 0 <= partition_id < n:
            raise PartitionError(f"partition {partition_id} out of range [0, {n})")
        first = partition_id * partition_subgraphs
        last = min(first + partition_subgraphs, self.num_blocks) - 1
        return first, last

    def range_table(self, range_subgraphs: int) -> tuple[np.ndarray, np.ndarray]:
        """Subgraph-range mapping table (Section III-C).

        Returns (low_end_vertex, high_end_vertex) per range of
        ``range_subgraphs`` consecutive blocks.
        """
        if range_subgraphs < 1:
            raise PartitionError("range_subgraphs must be >= 1")
        n_ranges = -(-self.num_blocks // range_subgraphs)
        lo = self.block_lo[::range_subgraphs][:n_ranges]
        hi_idx = np.minimum(
            np.arange(1, n_ranges + 1) * range_subgraphs - 1, self.num_blocks - 1
        )
        hi = self.block_hi[hi_idx]
        return lo.copy(), hi.copy()

    # -- consistency ------------------------------------------------------------------

    def verify(self) -> None:
        """Raise :class:`PartitionError` if any invariant is violated."""
        if self.num_blocks == 0:
            raise PartitionError("partitioning has no blocks")
        if not (
            self.block_lo.size
            == self.block_hi.size
            == self.block_edges.size
            == self.block_edge_lo.size
            == self.is_dense_block.size
        ):
            raise PartitionError("per-block arrays have inconsistent lengths")
        if self.block_lo[0] != 0:
            raise PartitionError("first block must start at vertex 0")
        if self.block_hi[-1] != self.graph.num_vertices - 1:
            raise PartitionError("last block must end at the last vertex")
        # Vertex coverage: contiguous, and only dense runs repeat a vertex.
        for i in range(1, self.num_blocks):
            prev_hi, lo = int(self.block_hi[i - 1]), int(self.block_lo[i])
            if lo == prev_hi + 1:
                continue
            if (
                lo == prev_hi
                and self.is_dense_block[i]
                and self.block_lo[i] == self.block_hi[i]
            ):
                continue  # continuation block of a dense vertex
            raise PartitionError(
                f"vertex coverage gap/overlap between blocks {i-1} and {i}: "
                f"hi={prev_hi}, next lo={lo}"
            )
        # Every edge stored exactly once.
        if int(self.block_edges.sum()) != self.graph.num_edges:
            raise PartitionError(
                f"blocks store {int(self.block_edges.sum())} edges, graph has "
                f"{self.graph.num_edges}"
            )
        # Dense metadata consistent with the graph.
        deg = self.graph.out_degrees()
        for v, meta in self.dense_meta.items():
            if meta.out_degree != int(deg[v]):
                raise PartitionError(
                    f"dense vertex {v}: metadata degree {meta.out_degree} != "
                    f"graph degree {int(deg[v])}"
                )
        # Block sizes within budget.
        for b in range(self.num_blocks):
            if self.block_bytes(b) > self.subgraph_bytes:
                raise PartitionError(
                    f"block {b} occupies {self.block_bytes(b)} bytes "
                    f"> subgraph_bytes={self.subgraph_bytes}"
                )

    def _check_block(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise PartitionError(
                f"block {block_id} out of range [0, {self.num_blocks})"
            )

    def __post_init__(self):
        self._vertex_block: np.ndarray | None = None
        self._dense_vertex_mask: np.ndarray | None = None
        # Precompute dense-run first-block redirection for block_of_vertex.
        if self.is_dense_block.any():
            first = np.arange(self.num_blocks, dtype=np.int64)
            for meta in self.dense_meta.values():
                first[meta.first_block : meta.first_block + meta.n_blocks] = (
                    meta.first_block
                )
            self._dense_first_block = first
        else:
            self._dense_first_block = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphPartitioning(blocks={self.num_blocks}, "
            f"dense_vertices={self.num_dense_vertices}, "
            f"subgraph_bytes={self.subgraph_bytes})"
        )


def partition_graph(
    graph: CSRGraph, subgraph_bytes: int, vid_bytes: int = 4
) -> GraphPartitioning:
    """Partition ``graph`` into graph blocks of at most ``subgraph_bytes``.

    Vertices are packed greedily in ID order; a vertex whose adjacency
    alone overflows an empty block becomes dense and is split across
    dedicated consecutive blocks.

    Weighted graphs store the cumulative-weight list CL alongside the
    edges (Section III-B: "The biased random walk requires more storage
    space for CL"), so each edge costs two ID units instead of one and
    blocks hold roughly half as many edges.
    """
    if subgraph_bytes <= 0:
        raise PartitionError(f"subgraph_bytes must be positive, got {subgraph_bytes}")
    if vid_bytes <= 0:
        raise PartitionError(f"vid_bytes must be positive, got {vid_bytes}")
    cap_units = subgraph_bytes // vid_bytes - _BLOCK_HEADER_UNITS
    if cap_units < 3:
        raise PartitionError(
            f"subgraph_bytes={subgraph_bytes} too small for vid_bytes={vid_bytes}"
        )
    n = graph.num_vertices
    if n == 0:
        raise PartitionError("cannot partition an empty graph")
    edge_units = 2 if graph.is_weighted else 1
    offsets = graph.offsets
    # Cost in vid units of packing vertices [start..end] into one block:
    #   (end - start + 2) offsets entries
    #   + edge_units * (offsets[end+1] - offsets[start]) edge (+CL) entries.
    # Monotone in `end`, so the largest feasible end is a searchsorted over
    #   f(end) = end + edge_units * offsets[end + 1].
    f = np.arange(n, dtype=np.int64) + edge_units * offsets[1:]
    #: Edges one dense block can hold (all capacity minus two offset slots).
    dense_edges_per_block = (cap_units - 2) // edge_units
    if dense_edges_per_block < 1:
        raise PartitionError("subgraph too small to hold a single edge")

    lo_list: list[int] = []
    hi_list: list[int] = []
    edges_list: list[int] = []
    edge_lo_list: list[int] = []
    dense_flag: list[bool] = []
    dense_meta: dict[int, DenseVertexMeta] = {}

    start = 0
    while start < n:
        deg_start = int(offsets[start + 1] - offsets[start])
        single_cost = 2 + edge_units * deg_start  # one vertex + its edges/CL
        if single_cost > cap_units:
            # Dense vertex: split its adjacency across dedicated blocks.
            first_block = len(lo_list)
            deg = deg_start
            n_blocks = -(-deg // dense_edges_per_block)
            for j in range(n_blocks):
                elo = j * dense_edges_per_block
                ehi = min(deg, elo + dense_edges_per_block)
                lo_list.append(start)
                hi_list.append(start)
                edges_list.append(ehi - elo)
                edge_lo_list.append(elo)
                dense_flag.append(True)
            dense_meta[start] = DenseVertexMeta(
                vertex=start,
                first_block=first_block,
                n_blocks=n_blocks,
                last_block_degree=deg - (n_blocks - 1) * dense_edges_per_block,
                edges_per_block=dense_edges_per_block,
            )
            start += 1
            continue
        # Largest `end` with (end - start + 2) + offsets[end+1] - offsets[start]
        # <= cap_units, i.e. f(end) <= cap_units + start - 2 + offsets[start].
        limit = cap_units + start - 2 + edge_units * int(offsets[start])
        end = int(np.searchsorted(f, limit, side="right")) - 1
        if end < start:  # the single vertex fits, so this cannot happen
            raise PartitionError(
                f"packing failed at vertex {start}"
            )  # pragma: no cover - defensive
        # Never let a non-dense block swallow a later dense vertex: stop
        # before any vertex that must be split.  (A vertex with
        # single_cost > cap_units cannot be inside [start..end] anyway,
        # because including it would blow the same budget.)
        lo_list.append(start)
        hi_list.append(end)
        edges_list.append(int(offsets[end + 1] - offsets[start]))
        edge_lo_list.append(0)
        dense_flag.append(False)
        start = end + 1

    part = GraphPartitioning(
        graph=graph,
        subgraph_bytes=subgraph_bytes,
        vid_bytes=vid_bytes,
        block_lo=np.array(lo_list, dtype=np.int64),
        block_hi=np.array(hi_list, dtype=np.int64),
        block_edges=np.array(edges_list, dtype=np.int64),
        block_edge_lo=np.array(edge_lo_list, dtype=np.int64),
        is_dense_block=np.array(dense_flag, dtype=bool),
        dense_meta=dense_meta,
    )
    return part
