"""Random-walk applications from the paper's introduction.

The paper motivates FlashWalker with DeepWalk/Node2Vec corpus
generation, Personalized PageRank, SimRank, and graph sampling
(Section I).  These are the *workload* layer: each builds on the walk
engines/reference walker and returns the analytic product the downstream
task consumes (walk corpus, rank vector, similarity, sampled subgraph).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import WalkError
from ..graph.csr import CSRGraph
from .reference import reference_walks
from .sampling import make_sampler
from .spec import WalkSpec, start_vertices

__all__ = [
    "deepwalk_corpus",
    "personalized_pagerank",
    "node2vec_corpus",
    "simrank_sampled",
    "random_walk_sample",
]


def deepwalk_corpus(
    graph: CSRGraph,
    rng: np.random.Generator,
    walks_per_vertex: int = 10,
    walk_length: int = 6,
) -> np.ndarray:
    """DeepWalk's corpus: ``walks_per_vertex`` trajectories per vertex.

    Returns an (n_walks, walk_length + 1) int array padded with -1 where
    walks hit dead ends early — the token sequences fed to skip-gram.
    """
    if walks_per_vertex < 1:
        raise WalkError(f"walks_per_vertex must be >= 1, got {walks_per_vertex}")
    starts = np.tile(np.arange(graph.num_vertices, dtype=np.int64), walks_per_vertex)
    spec = WalkSpec(length=walk_length).validate(graph)
    res = reference_walks(graph, starts, spec, rng, record_trajectories=True)
    return res["trajectories"]


def personalized_pagerank(
    graph: CSRGraph,
    source: int,
    rng: np.random.Generator,
    num_walks: int = 10_000,
    stop_probability: float = 0.15,
    max_length: int = 64,
) -> np.ndarray:
    """Monte-Carlo PPR: stationary visit frequency of restarting walks.

    Each walk starts at ``source`` and terminates with probability
    ``stop_probability`` per hop (termination condition 2).  The estimate
    is the normalized count of walk *endpoints*, the classic
    Fogaras-style estimator.
    """
    if not 0 <= source < graph.num_vertices:
        raise WalkError(f"source {source} out of range")
    if num_walks < 1:
        raise WalkError(f"num_walks must be >= 1, got {num_walks}")
    spec = WalkSpec(
        length=max_length, stop_probability=stop_probability
    ).validate(graph)
    starts = np.full(num_walks, source, dtype=np.int64)
    res = reference_walks(graph, starts, spec, rng)
    counts = np.bincount(res["final"], minlength=graph.num_vertices)
    return counts / counts.sum()


def node2vec_corpus(
    graph: CSRGraph,
    rng: np.random.Generator,
    walks_per_vertex: int = 4,
    walk_length: int = 6,
    p: float = 1.0,
    q: float = 1.0,
) -> np.ndarray:
    """Node2Vec trajectories with return parameter ``p`` / in-out ``q``.

    Second-order (dynamic) walks: the step distribution depends on the
    previous vertex, the paper's example of a *dynamic* random walk
    algorithm.  Implemented per-walk (the bias must inspect each
    candidate's relation to prev), so intended for moderate sizes.
    """
    if p <= 0 or q <= 0:
        raise WalkError(f"p and q must be positive, got p={p} q={q}")
    if walks_per_vertex < 1 or walk_length < 1:
        raise WalkError("walks_per_vertex and walk_length must be >= 1")
    n = graph.num_vertices
    n_walks = n * walks_per_vertex
    traj = np.full((n_walks, walk_length + 1), -1, dtype=np.int64)
    traj[:, 0] = np.tile(np.arange(n, dtype=np.int64), walks_per_vertex)
    # Pre-sorted adjacency views for fast membership checks.
    sorted_adj = {v: np.sort(graph.neighbors(v)) for v in range(n)}
    for w in range(n_walks):
        prev = -1
        cur = int(traj[w, 0])
        for step in range(1, walk_length + 1):
            nbrs = graph.neighbors(cur)
            if nbrs.size == 0:
                break
            if prev < 0:
                nxt = int(nbrs[rng.integers(nbrs.size)])
            else:
                weights = np.ones(nbrs.size)
                weights[nbrs == prev] = 1.0 / p
                prev_adj = sorted_adj[prev]
                pos = np.searchsorted(prev_adj, nbrs)
                pos = np.minimum(pos, prev_adj.size - 1)
                is_common = prev_adj.size > 0
                common = (
                    prev_adj[pos] == nbrs if is_common else np.zeros(nbrs.size, bool)
                )
                far = ~common & (nbrs != prev)
                weights[far] = 1.0 / q
                weights /= weights.sum()
                nxt = int(nbrs[rng.choice(nbrs.size, p=weights)])
            traj[w, step] = nxt
            prev, cur = cur, nxt
    return traj


def simrank_sampled(
    graph: CSRGraph,
    u: int,
    v: int,
    rng: np.random.Generator,
    num_pairs: int = 2_000,
    decay: float = 0.8,
    max_length: int = 10,
) -> float:
    """Sampled SimRank s(u, v): expected ``decay**t`` of first meeting.

    Runs paired walks from ``u`` and ``v`` on the *reversed* graph and
    scores the first time step at which they coincide (Jeh & Widom's
    random-surfer interpretation).
    """
    if not (0 <= u < graph.num_vertices and 0 <= v < graph.num_vertices):
        raise WalkError("u or v out of range")
    if not 0 < decay < 1:
        raise WalkError(f"decay must be in (0, 1), got {decay}")
    if u == v:
        return 1.0
    src, dst = graph.to_edge_list()
    reverse = CSRGraph.from_edge_list(dst, src, num_vertices=graph.num_vertices)
    sampler = make_sampler(reverse)
    a = np.full(num_pairs, u, dtype=np.int64)
    b = np.full(num_pairs, v, dtype=np.int64)
    score = np.zeros(num_pairs)
    alive = np.ones(num_pairs, dtype=bool)
    for t in range(1, max_length + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        na = sampler(a[idx], rng)
        nb = sampler(b[idx], rng)
        dead = (na < 0) | (nb < 0)
        alive[idx[dead]] = False
        ok = idx[~dead]
        a[ok] = na[~dead]
        b[ok] = nb[~dead]
        met = a[ok] == b[ok]
        score[ok[met]] = decay**t
        alive[ok[met]] = False
    return float(score.mean())


def random_walk_sample(
    graph: CSRGraph,
    rng: np.random.Generator,
    target_vertices: int,
    num_walks: int = 256,
    walk_length: int = 32,
) -> np.ndarray:
    """Representative vertex sample by random walks (Section I's use case).

    Launches walks from uniform starts and returns the first
    ``target_vertices`` distinct vertices touched, ordered by first
    visit (a standard RW-based graph sampling scheme).
    """
    if target_vertices < 1:
        raise WalkError(f"target_vertices must be >= 1, got {target_vertices}")
    spec = WalkSpec(length=walk_length).validate(graph)
    starts = start_vertices(graph, num_walks, rng)
    res = reference_walks(graph, starts, spec, rng, record_trajectories=True)
    seen: list[int] = []
    seen_set: set[int] = set()
    for step in range(walk_length + 1):
        for vtx in res["trajectories"][:, step]:
            if vtx >= 0 and int(vtx) not in seen_set:
                seen_set.add(int(vtx))
                seen.append(int(vtx))
                if len(seen) >= target_vertices:
                    return np.array(seen, dtype=np.int64)
    return np.array(seen, dtype=np.int64)
