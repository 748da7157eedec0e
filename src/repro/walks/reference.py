"""Reference in-memory random walker.

The ground truth the engines are validated against: a straightforward
vectorized walker that keeps the whole graph in memory and records full
trajectories.  No I/O model, no buffers — just the walk semantics of
Section II-A.  Tests compare engine visit distributions against this.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import WalkError
from ..graph.csr import CSRGraph
from .sampling import make_sampler
from .spec import WalkSpec

__all__ = ["reference_walks", "visit_counts"]


def reference_walks(
    graph: CSRGraph,
    starts: np.ndarray,
    spec: WalkSpec,
    rng: np.random.Generator,
    record_trajectories: bool = False,
) -> dict:
    """Run ``spec`` walks from ``starts`` to completion in memory.

    Returns a dict with:

    * ``final`` — final vertex per walk (int64; the vertex where the walk
      ended, possibly a dead end).
    * ``hops`` — hops actually taken per walk.
    * ``visits`` — visit count per vertex (start vertices included).
    * ``trajectories`` — (num_walks, length+1) array padded with -1,
      only when ``record_trajectories``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if starts.size and (starts.min() < 0 or starts.max() >= graph.num_vertices):
        raise WalkError("start vertex out of range")
    spec.validate(graph)
    sampler = make_sampler(graph, spec.biased)

    n = starts.size
    cur = starts.copy()
    hops_taken = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    visits = np.bincount(starts, minlength=graph.num_vertices).astype(np.int64)
    traj = None
    if record_trajectories:
        traj = np.full((n, spec.length + 1), -1, dtype=np.int64)
        traj[:, 0] = starts

    for step in range(spec.length):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        nxt = sampler(cur[idx], rng)
        dead = nxt < 0
        # dead ends: walk stops where it is
        active[idx[dead]] = False
        moved = idx[~dead]
        cur[moved] = nxt[~dead]
        hops_taken[moved] += 1
        visits += np.bincount(cur[moved], minlength=graph.num_vertices)
        if traj is not None:
            traj[moved, step + 1] = cur[moved]
        if spec.stop_probability > 0 and moved.size:
            stop = spec.apply_stop_probability(
                np.zeros(moved.size, dtype=np.int64), rng
            )
            active[moved[stop]] = False

    out = {"final": cur, "hops": hops_taken, "visits": visits}
    if traj is not None:
        out["trajectories"] = traj
    return out


def visit_counts(
    graph: CSRGraph,
    num_walks: int,
    spec: WalkSpec,
    rng: np.random.Generator,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """Convenience: visit histogram over ``num_walks`` uniform-start walks."""
    from .spec import start_vertices

    starts = start_vertices(graph, num_walks, rng, sources)
    return reference_walks(graph, starts, spec, rng)["visits"]
