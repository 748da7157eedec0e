"""Synthetic graph generators.

The paper's synthetic graphs (R2B, R8B) come from PaRMAT; our
:func:`rmat` is a vectorized recursive-matrix generator with the standard
Graph500/PaRMAT parameters ``(a, b, c, d)``.  Real-graph *analogs*
(Twitter/Friendster/ClueWeb at laptop scale) are produced by
:func:`powerlaw_graph`, which matches a target |V|, |E| and degree skew.

All generators take an explicit :class:`numpy.random.Generator` so graph
content is a pure function of the seed (DESIGN.md Section 4).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import GraphError
from .csr import CSRGraph

__all__ = [
    "rmat",
    "powerlaw_graph",
    "erdos_renyi",
    "ring_graph",
    "complete_graph",
    "star_graph",
    "path_graph",
    "add_random_weights",
]

#: Edges per random draw in :func:`rmat`; bounds its float working set.
_RMAT_CHUNK = 1 << 16


def rmat(
    scale: int,
    edge_factor: int,
    rng: np.random.Generator,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    dedup: bool = False,
    permute: bool = True,
) -> CSRGraph:
    """Generate an R-MAT graph with ``2**scale`` vertices.

    ``edge_factor`` edges are drawn per vertex by the recursive quadrant
    procedure; ``(a, b, c, 1-a-b-c)`` are the quadrant probabilities
    (defaults are the Graph500/PaRMAT values, giving heavy skew).
    ``permute`` relabels vertices randomly so vertex ID does not correlate
    with degree — important because FlashWalker's partitioner is
    ID-contiguous and real graph IDs are not degree-sorted.
    """
    if scale < 0 or scale > 30:
        raise GraphError(f"rmat scale out of range [0, 30]: {scale}")
    if edge_factor < 1:
        raise GraphError(f"edge_factor must be >= 1, got {edge_factor}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise GraphError(f"invalid RMAT probabilities a={a} b={b} c={c} d={d}")

    n = 1 << scale
    m = n * edge_factor
    # IDs in the narrowest unsigned type that holds them (2 or 4 bytes).
    ids = np.uint16 if scale <= 16 else np.uint32
    src = np.zeros(m, dtype=ids)
    dst = np.zeros(m, dtype=ids)
    # At each of `scale` bit levels, choose a quadrant per edge: all m row
    # doubles, then all m column doubles, drawn in chunks into one buffer
    # (the same stream as one draw of m).  A column bit compares against
    # c_frac in the bottom half and a_frac in the top; the row bit just
    # added to src says which.
    ab = a + b
    a_frac = a / ab if ab > 0 else 0.0
    c_frac = c / (c + d) if (c + d) > 0 else 0.0
    buf = np.empty(min(m, _RMAT_CHUNK))
    chunks = [(lo, min(lo + _RMAT_CHUNK, m)) for lo in range(0, m, _RMAT_CHUNK)]
    for _ in range(scale):
        for lo, hi in chunks:
            r = rng.random(out=buf[: hi - lo])
            s = src[lo:hi]
            s <<= 1
            s += r >= ab  # bottom half of the matrix -> src bit 1
        for lo, hi in chunks:
            r = rng.random(out=buf[: hi - lo])
            go_down = (src[lo:hi] & 1).astype(bool)
            t = dst[lo:hi]
            t <<= 1
            t += (go_down & (r >= c_frac)) | (~go_down & (r >= a_frac))
    if permute:
        perm = rng.permutation(n).astype(ids)
        for lo, hi in chunks:
            src[lo:hi] = perm[src[lo:hi]]
            dst[lo:hi] = perm[dst[lo:hi]]
    if dedup:
        pair = src.astype(np.int64) * n + dst
        _, keep = np.unique(pair, return_index=True)
        src, dst = src[keep], dst[keep]
    return CSRGraph.from_edge_list(src, dst, num_vertices=n)


def powerlaw_graph(
    num_vertices: int,
    num_edges: int,
    rng: np.random.Generator,
    exponent: float = 0.9,
    self_loops: bool = False,
) -> CSRGraph:
    """Graph with Zipf-distributed in- *and* out-degree.

    Both endpoints of each edge are drawn from a finite Zipf(``exponent``)
    distribution over randomly-permuted vertex ranks, reproducing the
    power-law degree structure of social/web graphs that FlashWalker's
    hot-subgraph optimization exploits (Section III-C).  Exponents in
    (0, 1] are valid for finite vertex counts and give the moderate skew
    of real social graphs; larger exponents concentrate edges harder.
    """
    if num_vertices < 1:
        raise GraphError(f"need >= 1 vertex, got {num_vertices}")
    if num_edges < 0:
        raise GraphError(f"negative edge count: {num_edges}")
    if exponent <= 0.0:
        raise GraphError(f"Zipf exponent must be > 0, got {exponent}")
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    probs = ranks**-exponent
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    perm_src = rng.permutation(num_vertices)
    perm_dst = rng.permutation(num_vertices)
    src = perm_src[np.searchsorted(cdf, rng.random(num_edges), side="right")]
    dst = perm_dst[np.searchsorted(cdf, rng.random(num_edges), side="right")]
    if not self_loops and num_vertices > 1:
        loops = src == dst
        dst[loops] = (dst[loops] + 1) % num_vertices
    return CSRGraph.from_edge_list(src, dst, num_vertices=num_vertices)


def erdos_renyi(
    num_vertices: int, num_edges: int, rng: np.random.Generator
) -> CSRGraph:
    """Uniform random directed graph with exactly ``num_edges`` edges."""
    if num_vertices < 1:
        raise GraphError(f"need >= 1 vertex, got {num_vertices}")
    if num_edges < 0:
        raise GraphError(f"negative edge count: {num_edges}")
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edge_list(src, dst, num_vertices=num_vertices)


def ring_graph(num_vertices: int) -> CSRGraph:
    """Directed cycle 0 -> 1 -> ... -> n-1 -> 0 (every vertex degree 1)."""
    if num_vertices < 1:
        raise GraphError(f"need >= 1 vertex, got {num_vertices}")
    src = np.arange(num_vertices, dtype=np.int64)
    dst = (src + 1) % num_vertices
    return CSRGraph.from_edge_list(src, dst, num_vertices=num_vertices)


def complete_graph(num_vertices: int) -> CSRGraph:
    """Complete directed graph without self loops."""
    if num_vertices < 1:
        raise GraphError(f"need >= 1 vertex, got {num_vertices}")
    src = np.repeat(np.arange(num_vertices, dtype=np.int64), num_vertices - 1)
    base = np.tile(np.arange(num_vertices - 1, dtype=np.int64), num_vertices)
    # skip the self loop by shifting destinations >= the source
    dst = base + (base >= src)
    return CSRGraph.from_edge_list(src, dst, num_vertices=num_vertices)


def star_graph(num_leaves: int, bidirectional: bool = True) -> CSRGraph:
    """Vertex 0 connected to ``num_leaves`` leaves — a single dense vertex.

    With ``bidirectional`` each leaf points back to the hub, so walks do
    not get stuck; this is the canonical pre-walking test graph.
    """
    if num_leaves < 1:
        raise GraphError(f"need >= 1 leaf, got {num_leaves}")
    hub_src = np.zeros(num_leaves, dtype=np.int64)
    leaves = np.arange(1, num_leaves + 1, dtype=np.int64)
    if bidirectional:
        src = np.concatenate([hub_src, leaves])
        dst = np.concatenate([leaves, np.zeros(num_leaves, dtype=np.int64)])
    else:
        src, dst = hub_src, leaves
    return CSRGraph.from_edge_list(src, dst, num_vertices=num_leaves + 1)


def path_graph(num_vertices: int) -> CSRGraph:
    """Directed path 0 -> 1 -> ... -> n-1 (last vertex is a sink)."""
    if num_vertices < 1:
        raise GraphError(f"need >= 1 vertex, got {num_vertices}")
    src = np.arange(num_vertices - 1, dtype=np.int64)
    dst = src + 1
    return CSRGraph.from_edge_list(src, dst, num_vertices=num_vertices)


def add_random_weights(
    graph: CSRGraph, rng: np.random.Generator, low: float = 0.1, high: float = 10.0
) -> CSRGraph:
    """Copy of ``graph`` with uniform random edge weights in [low, high)."""
    if not 0 < low < high:
        raise GraphError(f"need 0 < low < high, got low={low} high={high}")
    weights = rng.uniform(low, high, size=graph.num_edges)
    return CSRGraph(graph.offsets, graph.edges, weights)
