"""Random-walk applications from the paper's introduction.

The paper motivates FlashWalker with DeepWalk corpus generation and
Personalized PageRank, among others (Section I).  These are the
*workload* layer: each builds on the reference walker and returns the
analytic product the downstream task consumes (walk corpus, rank
vector).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import WalkError
from ..graph.csr import CSRGraph
from .reference import reference_walks
from .spec import WalkSpec

__all__ = ["deepwalk_corpus", "personalized_pagerank"]


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

