"""Neighbor sampling: uniform, Inverse Transform Sampling, alias method.

Unbiased walks pick a uniform out-edge (paper Section III-B steps 3-6);
biased walks use ITS over the cumulative weight list CL.  For batch
simulation we also provide a per-graph :class:`AliasSampler` whose draws
follow *exactly* the same weighted distribution as ITS but cost O(1)
per sample and vectorize; the engines use it for speed while charging
ITS's binary-search cycle cost in their timing models (DESIGN.md 4).

All samplers return ``-1`` for walks sitting on zero-out-degree vertices
(dead ends), which the engines treat as forced termination.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import GraphError, WalkError
from ..graph.csr import CSRGraph

__all__ = [
    "uniform_next",
    "its_search_steps",
    "AliasSampler",
    "make_sampler",
]


def uniform_next(
    graph: CSRGraph, cur: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample one out-neighbor per walk (vectorized).

    Mirrors the updater datapath: rnd0 -> rnd1 in [0, outDegree) -> edge
    fetch at offset rnd1.  Dead ends yield -1.
    """
    cur = np.asarray(cur, dtype=np.int64)
    if cur.size == 0:
        return np.zeros(0, dtype=np.int64)
    if cur.min() < 0 or cur.max() >= graph.num_vertices:
        raise WalkError("walk position out of vertex range")
    starts = graph.offsets[cur]
    degs = graph.offsets[cur + 1] - starts
    if degs.min() > 0:
        # No dead end: the same single draw, without the mask gathers.
        rnd1 = (rng.random(cur.size) * degs).astype(np.int64)
        np.minimum(rnd1, degs - 1, out=rnd1)
        return graph.edges[starts + rnd1].astype(np.int64, copy=False)
    out = np.full(cur.shape, -1, dtype=np.int64)
    alive = degs > 0
    if alive.any():
        rnd1 = (rng.random(int(alive.sum())) * degs[alive]).astype(np.int64)
        # guard the pathological rng.random() == 1.0 edge
        np.minimum(rnd1, degs[alive] - 1, out=rnd1)
        out[alive] = graph.edges[starts[alive] + rnd1]
    return out


def its_search_steps(out_degree: np.ndarray | int) -> np.ndarray | int:
    """Binary-search step count ITS performs for given out-degree(s).

    ceil(log2(d)) comparisons, minimum 1 — the extra updater cycles the
    paper attributes to biased walks.
    """
    d = np.maximum(np.atleast_1d(np.asarray(out_degree, dtype=np.int64)), 1)
    steps = np.ceil(np.log2(np.maximum(d, 2))).astype(np.int64)
    steps = np.maximum(steps, 1)
    # 0-d ndarrays are scalars too (np.isscalar(np.array(5)) is False, so
    # dispatching on it would wrongly return a length-1 array for them).
    if np.ndim(out_degree) == 0:
        return int(steps[0])
    return steps


class AliasSampler:
    """Walker's alias method over every vertex's out-edge weights.

    Construction is O(|E|); sampling is two RNG draws + two gathers per
    walk, fully vectorized.  Distribution is identical to ITS.
    """

    def __init__(self, graph: CSRGraph):
        if graph.weights is None:
            raise GraphError("AliasSampler requires a weighted graph")
        self.graph = graph
        m = graph.num_edges
        self.prob = np.ones(m, dtype=np.float64)
        self.alias = np.arange(m, dtype=np.int64)
        offsets = graph.offsets
        weights = graph.weights
        for v in range(graph.num_vertices):
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            deg = hi - lo
            if deg <= 1:
                continue
            w = weights[lo:hi]
            scaled = w * (deg / w.sum())
            small = [i for i in range(deg) if scaled[i] < 1.0]
            large = [i for i in range(deg) if scaled[i] >= 1.0]
            scaled = scaled.copy()
            while small and large:
                s = small.pop()
                l = large.pop()
                self.prob[lo + s] = scaled[s]
                self.alias[lo + s] = lo + l
                scaled[l] -= 1.0 - scaled[s]
                if scaled[l] < 1.0:
                    small.append(l)
                else:
                    large.append(l)
            for i in large + small:
                self.prob[lo + i] = 1.0
                self.alias[lo + i] = lo + i

    def next_vertices(self, cur: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Weighted next-hop per walk; -1 at dead ends."""
        cur = np.asarray(cur, dtype=np.int64)
        if cur.size == 0:
            return np.zeros(0, dtype=np.int64)
        g = self.graph
        starts = g.offsets[cur]
        degs = g.offsets[cur + 1] - starts
        out = np.full(cur.shape, -1, dtype=np.int64)
        alive = degs > 0
        n = int(alive.sum())
        if n:
            slot = (rng.random(n) * degs[alive]).astype(np.int64)
            np.minimum(slot, degs[alive] - 1, out=slot)
            j = starts[alive] + slot
            take_alias = rng.random(n) >= self.prob[j]
            j = np.where(take_alias, self.alias[j], j)
            out[alive] = g.edges[j]
        return out


def make_sampler(graph: CSRGraph, biased: bool = False):
    """Sampler function ``(cur, rng) -> next`` for a walk spec's
    ``biased`` flag.

    Unbiased walks sample uniformly, whatever the edge weights (Section
    II-A); biased walks get an :class:`AliasSampler` (ITS-equivalent
    distribution), which needs a weighted graph.
    """
    if not biased:
        return lambda cur, rng: uniform_next(graph, cur, rng)
    return AliasSampler(graph).next_vertices
