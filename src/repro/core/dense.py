"""Dense vertices mapping table and pre-walking (Section III-D).

A dense vertex's out-edges span several graph blocks, which can never be
co-resident under the accelerator buffer budget.  *Pre-walking* chooses
the graph block of the walk's next stop **before** sampling the stop:
for an unbiased walk, draw ``rnd`` in [0, outDegree) and route the walk
to block ``first + rnd // edges_per_block``; the in-block offset
``rnd % edges_per_block`` resolves later when that block is loaded.
The two-stage draw is distributionally identical to a single uniform
draw over all out-edges (tests verify this).

The table itself is a Bloom filter (membership) plus a hash map (the
metadata); the guider consults it *before* the subgraph mapping table,
and a false positive only costs a wasted hash probe.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import ReproError
from ..common.state import Stateful
from ..graph.partition import DenseVertexMeta, GraphPartitioning
from .bloom import BloomFilter

__all__ = ["DenseVertexTable", "PreWalkResult"]


class PreWalkResult:
    """Outcome of pre-walking a batch: target block + in-block edge
    offset, as int arrays or, for a list of vertices, lists of ints."""

    __slots__ = ("block", "edge_offset")

    def __init__(
        self, block: np.ndarray | list[int], edge_offset: np.ndarray | list[int]
    ):
        self.block = block
        self.edge_offset = edge_offset


class DenseVertexTable(Stateful):
    """Bloom filter + hash table over dense vertices."""

    STATE = ("bloom_queries", "bloom_positives", "false_positives", "hash_probes")

    def __init__(self, partitioning: GraphPartitioning, bits_per_item: int = 10):
        self.partitioning = partitioning
        n = max(1, partitioning.num_dense_vertices)
        self.bloom = BloomFilter.for_capacity(n, bits_per_item)
        self.meta: dict[int, DenseVertexMeta] = dict(partitioning.dense_meta)
        if self.meta:
            self.bloom.add(np.fromiter(self.meta, dtype=np.int64, count=len(self.meta)))
        # Vectorized views of the metadata for batch pre-walking.
        if self.meta:
            verts = np.array(sorted(self.meta), dtype=np.int64)
            self._verts = verts
            self._first = np.array(
                [self.meta[int(v)].first_block for v in verts], dtype=np.int64
            )
            self._degree = np.array(
                [self.meta[int(v)].out_degree for v in verts], dtype=np.int64
            )
            self._per_block = np.array(
                [self.meta[int(v)].edges_per_block for v in verts], dtype=np.int64
            )
        else:
            self._verts = np.zeros(0, dtype=np.int64)
            self._first = np.zeros(0, dtype=np.int64)
            self._degree = np.zeros(0, dtype=np.int64)
            self._per_block = np.zeros(0, dtype=np.int64)
        # The filter's answer per vertex (-1: not asked yet).  Answers
        # never change after construction, so this is a pure cache:
        # each vertex is hashed at most once, on its first query.
        self._memo = np.full(partitioning.graph.num_vertices, -1, dtype=np.int8)
        self._dense = partitioning.dense_vertex_mask
        self.bloom_queries = 0
        self.bloom_positives = 0
        self.false_positives = 0
        self.hash_probes = 0

    @property
    def num_dense(self) -> int:
        return len(self.meta)

    def classify(self, v: np.ndarray | list[int]) -> np.ndarray | list[bool]:
        """Mask of vertices that are dense, via bloom + hash confirm.

        Bloom false positives are counted (they cost a hash probe) but
        corrected by the hash-table miss, so the result is exact.  The
        counters count every query, repeats included, as if each one
        went through the filter.  A list of ints gets a list of bools,
        computed on Python ints; anything else a bool array.
        """
        if type(v) is list:
            return self._classify_list(v)
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return np.zeros(0, dtype=bool)
        memo = self._memo
        # One reduction checks both ends: a negative int64 viewed as
        # uint64 is at least 2**63.
        if v.view(np.uint64).max() >= memo.size:
            raise ReproError(f"vertex out of range [0, {memo.size})")
        maybe = memo[v]
        unseen = maybe < 0
        if unseen.any():
            contains_key = self.bloom.contains_key
            for key in set(v[unseen].tolist()):
                memo[key] = contains_key(key)
            maybe = memo[v]
        maybe = maybe.view(bool)
        n_maybe = int(np.count_nonzero(maybe))
        self.bloom_queries += v.size
        self.bloom_positives += n_maybe
        if not n_maybe:
            return maybe
        confirmed = maybe & self._dense[v]
        self.hash_probes += n_maybe
        self.false_positives += n_maybe - int(np.count_nonzero(confirmed))
        return confirmed

    def _classify_list(self, v: list[int]) -> list[bool]:
        """:meth:`classify` one vertex at a time: the same memo, the
        same answers and the same counter increments."""
        memo = self._memo
        size = memo.size
        asked = memo.item
        dense = self._dense.item
        out = []
        n_maybe = 0
        for x in v:
            if not 0 <= x < size:
                raise ReproError(f"vertex out of range [0, {size})")
            m = asked(x)
            if m < 0:
                m = memo[x] = self.bloom.contains_key(x)
            if m:
                n_maybe += 1
                out.append(dense(x))
            else:
                out.append(False)
        self.bloom_queries += len(v)
        self.bloom_positives += n_maybe
        if n_maybe:
            self.hash_probes += n_maybe
            self.false_positives += n_maybe - sum(out)
        return out

    def pre_walk(
        self, v: np.ndarray | list[int], rng: np.random.Generator
    ) -> PreWalkResult:
        """Pre-walk a batch of dense walks sitting at dense vertices ``v``.

        Draws the uniform edge index now and splits it into (target
        block, in-block offset).  All ``v`` must be dense.  A list of
        ints gets lists of ints, from the same draws and the same
        integer arithmetic (``Generator.random(n)`` yields the doubles
        of ``n`` scalar calls).
        """
        if type(v) is list:
            return self._pre_walk_list(v, rng)
        v = np.asarray(v, dtype=np.int64)
        if v.size == 0:
            return PreWalkResult(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
            )
        pos = np.searchsorted(self._verts, v)
        if (
            self._verts.size == 0
            or (pos >= self._verts.size).any()
            or (self._verts[np.minimum(pos, self._verts.size - 1)] != v).any()
        ):
            raise ReproError("pre_walk called with a non-dense vertex")
        deg = self._degree[pos]
        rnd = (rng.random(v.size) * deg).astype(np.int64)
        np.minimum(rnd, deg - 1, out=rnd)
        block = self._first[pos] + rnd // self._per_block[pos]
        return PreWalkResult(block, rnd % self._per_block[pos])

    def _pre_walk_list(self, v: list[int], rng: np.random.Generator) -> PreWalkResult:
        """:meth:`pre_walk` on Python ints."""
        meta = self.meta
        rows = []
        for x in v:
            m = meta.get(x)
            if m is None:
                raise ReproError("pre_walk called with a non-dense vertex")
            rows.append((int(m.first_block), int(m.out_degree), int(m.edges_per_block)))
        block: list[int] = []
        offset: list[int] = []
        if rows:
            for (first, deg, per), u in zip(rows, rng.random(len(rows)).tolist()):
                rnd = min(int(u * deg), deg - 1)
                block.append(first + rnd // per)
                offset.append(rnd % per)
        return PreWalkResult(block, offset)

    @property
    def measured_fpr(self) -> float:
        neg = self.bloom_queries - (self.bloom_positives - self.false_positives)
        return self.false_positives / neg if neg else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DenseVertexTable(n={self.num_dense}, "
            f"queries={self.bloom_queries}, fpr={self.measured_fpr:.3%})"
        )
