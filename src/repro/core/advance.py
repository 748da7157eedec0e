"""Walk advancement within a set of loaded subgraphs.

The inner loop of every accelerator level (Section III-B steps 2-7):
fetch a walk, sample its next stop, decrement hops, then guide it — into
another loaded subgraph's queue (keep advancing), the completed buffer,
or the roving buffer.  We count hops / guide operations / ITS search
steps so the caller can charge accurate updater and guider time
(DESIGN.md Section 4: behaviorally exact trajectories, request-accurate
timing).

Two kernels do the work and :func:`advance_batch` picks one per call.
:func:`advance_vector` advances the *whole batch* per iteration with
NumPy.  :func:`advance_scalar` walks a batch of records one walk at a
time in plain Python, for the paper's walk only (unbiased, fixed
length): most chip batches hold 1-3 walks, where NumPy's fixed cost per
call dominates.  Both take the same RNG draws in the same order and
return the same walks, so the choice never changes a simulated result.
A batch comes out in the form it went in: records (at most
:data:`~repro.walks.state.SMALL_BATCH` walks) give records, a WalkSet
gives WalkSets.

Dense-vertex rules (Section III-D): a walk *landing on* a dense vertex
always exits as roving — it needs board-level pre-walking.  A walk
*arriving with* a pre-walked edge index resolves that edge directly when
its dense block is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import PartitionError, ReproError, WalkError
from ..graph.csr import CSRGraph
from ..graph.partition import GraphPartitioning
from ..walks.sampling import its_search_steps
from ..walks.spec import WalkSpec
from ..walks.state import SMALL_BATCH, WalkSet
from .buffers import WalkBatch

__all__ = [
    "AdvanceContext", "AdvanceResult", "SMALL_BATCH", "advance_batch", "in_sorted",
]


def in_sorted(sorted_arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Membership test against a *sorted* array via binary search.

    Equivalent to ``np.isin(values, sorted_arr)`` but O(n log m) with no
    per-call sort or broadcast temporaries — the guider membership check
    is on the advancement hot path.
    """
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    np.minimum(idx, sorted_arr.size - 1, out=idx)
    return sorted_arr[idx] == values


@dataclass
class AdvanceContext:
    """Static inputs of the advancement kernel, shared by all levels."""

    graph: CSRGraph
    partitioning: GraphPartitioning
    spec: WalkSpec
    # (cur, rng) -> next vertices, -1 at dead ends:
    # ``make_sampler(graph, spec.biased)``, since the scalar kernel
    # samples an unbiased spec's walks uniformly whatever this holds.
    sampler: object
    is_dense_vertex: np.ndarray  # bool per vertex

    @classmethod
    def build(cls, graph, partitioning, spec, sampler) -> "AdvanceContext":
        return cls(graph, partitioning, spec, sampler, partitioning.dense_vertex_mask)


@dataclass
class AdvanceResult:
    """Outcome of draining one batch against a loaded subgraph set."""

    completed: WalkSet | list[tuple[int, int, int]]
    roving: WalkSet | list[tuple[int, int, int]]
    hops: int
    guide_ops: int
    bias_steps: int

    @property
    def n_completed(self) -> int:
        return len(self.completed)


def advance_batch(
    ctx: AdvanceContext,
    batch: WalkBatch,
    loaded_blocks: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> AdvanceResult:
    """Advance walks until each terminates or leaves ``loaded_blocks``.

    ``batch.pre_edge`` entries >= 0 are resolved on the first iteration
    (their dense block must be in ``loaded_blocks``).  Returns completed
    and roving walks, in the batch's form, plus the operation counts for
    timing.  Walks of an unbiased, fixed-length spec go to
    :func:`advance_scalar` when they are records or a WalkSet of at most
    :data:`SMALL_BATCH` walks, all others to :func:`advance_vector`;
    both give the same result.
    """
    spec = ctx.spec
    scalar = not spec.biased and spec.stop_probability == 0
    walks, pre = batch.walks, batch.pre_edge
    if type(walks) is list:
        if scalar:
            return advance_scalar(ctx, batch, loaded_blocks, rng)
        if pre is not None:
            pre = np.array(pre, dtype=np.int64)
        res = advance_vector(
            ctx, WalkBatch(WalkSet.from_records(walks), pre), loaded_blocks, rng
        )
        res.completed = res.completed.records()
        res.roving = res.roving.records()
        return res
    if scalar and len(walks) <= SMALL_BATCH:
        if pre is not None:
            pre = pre.tolist()
        res = advance_scalar(
            ctx, WalkBatch(walks.records(), pre), loaded_blocks, rng
        )
        res.completed = WalkSet.from_records(res.completed)
        res.roving = WalkSet.from_records(res.roving)
        return res
    return advance_vector(ctx, batch, loaded_blocks, rng)


def advance_scalar(
    ctx: AdvanceContext,
    batch: WalkBatch,
    loaded_blocks: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> AdvanceResult:
    """:func:`advance_vector` for an unbiased, fixed-length spec, one
    walk at a time in plain Python, on a batch of records (with a list
    ``pre_edge``); its completed and roving walks are records.

    Iteration by iteration over the still-active walks, in batch order,
    it takes the draws :func:`~repro.walks.sampling.uniform_next` takes
    for the whole iteration: one ``rng.random()`` per walk not at a dead
    end (``Generator.random(k)`` yields the same doubles as ``k`` scalar
    calls).  Completed and roving walks come out in the vector kernel's
    order, and it raises the same errors.
    """
    recs = batch.walks
    cur = [r[1] for r in recs]
    hop = [r[2] for r in recs]
    loaded = set(loaded_blocks)
    n_cmp = max(1, len(loaded))  # guider compares against each loaded range
    num_vertices = ctx.graph.num_vertices
    offset = ctx.graph.offsets.item
    edge = ctx.graph.edges.item
    block_of = ctx.partitioning.vertex_block.item
    is_dense = ctx.is_dense_vertex.item
    random = rng.random

    # Pre-walked dense hops are resolved on the first iteration only,
    # after every one is checked and before any draw.
    pre = batch.pre_edge
    if pre is not None:
        for v, e in zip(cur, pre):
            if e >= 0 and e >= offset(v + 1) - offset(v):
                raise ReproError("pre-walked edge index beyond vertex degree")

    completed: list[int] = []  # walk indices, in the vector kernel's order
    roving: list[int] = []
    hops = 0
    guide_ops = 0
    active = range(len(recs))
    while active:
        guide_ops += len(active) * n_cmp
        cont = []
        for i in active:
            v = cur[i]
            if pre is not None and pre[i] >= 0:
                nxt = edge(offset(v) + pre[i])
            else:
                if not 0 <= v < num_vertices:
                    raise WalkError("walk position out of vertex range")
                lo = offset(v)
                deg = offset(v + 1) - lo
                if deg == 0:  # dead end: the walk ends where it stands
                    completed.append(i)
                    continue
                k = int(random() * deg)
                # guard the pathological rng.random() == 1.0 edge
                nxt = edge(lo + (k if k < deg else deg - 1))
            hops += 1
            cur[i] = nxt
            hop[i] -= 1
            if hop[i] == 0:
                completed.append(i)
                continue
            # Guiding: stay if the new vertex's block is loaded here and
            # the vertex is not dense (dense landings need board
            # pre-walking).
            if not 0 <= nxt < num_vertices:
                raise PartitionError(f"vertex out of range [0, {num_vertices})")
            if block_of(nxt) in loaded and not is_dense(nxt):
                cont.append(i)
            else:
                roving.append(i)
        active = cont
        pre = None

    return AdvanceResult(
        completed=[(recs[i][0], cur[i], hop[i]) for i in completed],
        roving=[(recs[i][0], cur[i], hop[i]) for i in roving],
        hops=hops,
        guide_ops=guide_ops,
        bias_steps=0,
    )


def advance_vector(
    ctx: AdvanceContext,
    batch: WalkBatch,
    loaded_blocks: list[int] | np.ndarray,
    rng: np.random.Generator,
) -> AdvanceResult:
    """Advance the whole batch per iteration with NumPy (any spec)."""
    loaded = np.asarray(sorted(set(int(b) for b in loaded_blocks)), dtype=np.int64)
    walks = batch.walks
    n = len(walks)
    if n == 0:
        return AdvanceResult(WalkSet.empty(), WalkSet.empty(), 0, 0, 0)

    graph = ctx.graph
    part = ctx.partitioning
    offsets = graph.offsets
    edges = graph.edges

    src = walks.src  # read-only here: outputs gather copies
    cur = walks.cur.copy()
    hop = walks.hop.copy()
    # Pre-walked dense hops are resolved on the first iteration only.
    pre = batch.pre_edge
    pre_walked = pre is not None and bool((pre >= 0).any())

    completed_parts: list[WalkSet] = []
    roving_parts: list[WalkSet] = []
    hops = 0
    guide_ops = 0
    bias_steps = 0
    n_cmp = max(1, loaded.size)  # guider compares against each loaded range

    biased = ctx.spec.biased
    sampler = ctx.sampler
    active = np.arange(n, dtype=np.int64)
    while active.size:
        acur = cur[active]
        if pre_walked:
            # First iteration: ``active`` is every walk of the batch.
            pre_walked = False
            has_pre = pre >= 0
            nxt = np.empty(n, dtype=np.int64)
            pa = np.flatnonzero(has_pre)
            eidx = offsets[cur[pa]] + pre[pa]
            if (pre[pa] >= (offsets[cur[pa] + 1] - offsets[cur[pa]])).any():
                raise ReproError("pre-walked edge index beyond vertex degree")
            nxt[has_pre] = edges[eidx]
            plain = ~has_pre
            if plain.any():
                pcur = acur[plain]
                nxt[plain] = sampler(pcur, rng)
                if biased:
                    degs = offsets[pcur + 1] - offsets[pcur]
                    bias_steps += int(
                        np.sum(its_search_steps(np.maximum(degs, 1)))
                    )
        else:
            nxt = sampler(acur, rng)
            if biased:
                degs = offsets[acur + 1] - offsets[acur]
                bias_steps += int(np.sum(its_search_steps(np.maximum(degs, 1))))

        dead = nxt < 0
        n_moved = active.size - int(np.count_nonzero(dead))
        hops += n_moved
        guide_ops += active.size * n_cmp

        # Apply the move (``moved`` is None when no walk hit a dead end).
        if n_moved == active.size:
            moved = None
            cur[active] = nxt
            hop[active] -= 1
            done = hop[active] == 0
        else:
            moved = ~dead
            midx = active[moved]
            cur[midx] = nxt[moved]
            hop[midx] -= 1
            done = dead
            done[moved] = hop[midx] == 0
        if ctx.spec.stop_probability > 0:
            still = ~done if moved is None else moved & ~done
            if still.any():
                stop = ctx.spec.apply_stop_probability(
                    hop[active[still]], rng
                )
                tmp = np.zeros(active.size, dtype=bool)
                tmp[np.flatnonzero(still)[stop]] = True
                done |= tmp
        done_idx = active[done]
        if done_idx.size:
            completed_parts.append(
                WalkSet.wrap(src[done_idx], cur[done_idx], hop[done_idx])
            )
            cont = active[~done]
            if cont.size == 0:
                break
        else:
            cont = active
        # Guiding: stay if the new vertex's block is loaded here and the
        # vertex is not dense (dense landings need board pre-walking).
        v = cur[cont]
        blocks = part.block_of_vertex(v)
        stays = in_sorted(loaded, blocks) & ~ctx.is_dense_vertex[v]
        rove_idx = cont[~stays]
        if rove_idx.size:
            roving_parts.append(
                WalkSet.wrap(src[rove_idx], cur[rove_idx], hop[rove_idx])
            )
        active = cont[stays]

    return AdvanceResult(
        completed=WalkSet.concat(completed_parts),
        roving=WalkSet.concat(roving_parts),
        hops=hops,
        guide_ops=guide_ops,
        bias_steps=bias_steps,
    )
