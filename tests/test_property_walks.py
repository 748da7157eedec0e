"""Property-based tests for walk semantics and the advancement kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import ReproError, RngRegistry, WalkError
from repro.core import AdvanceContext, WalkBatch, advance_batch
from repro.core.advance import SMALL_BATCH, advance_scalar, advance_vector
from repro.graph import CSRGraph, partition_graph, ring_graph
from repro.walks import WalkSet, WalkSpec, make_sampler, reference_walks


@st.composite
def graphs_without_dead_ends(draw, max_vertices=40):
    """Random graph where every vertex has at least one out-edge."""
    n = draw(st.integers(2, max_vertices))
    extra = draw(st.integers(0, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # guarantee out-degree >= 1 with a functional edge per vertex
    src = np.concatenate(
        [np.arange(n), rng.integers(0, n, size=extra)]
    ).astype(np.int64)
    dst = rng.integers(0, n, size=n + extra).astype(np.int64)
    return CSRGraph.from_edge_list(src, dst, num_vertices=n)


@st.composite
def walk_sets(draw, max_n=30):
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return WalkSet(
        rng.integers(0, 100, size=n),
        rng.integers(0, 100, size=n),
        rng.integers(0, 9, size=n),
    )


def assert_revalidates(ws):
    """``ws`` passes the validating constructor unchanged: no error and
    no conversion (int64 1-D arrays come back as the same objects)."""
    again = WalkSet(ws.src, ws.cur, ws.hop)
    assert again.src is ws.src and again.cur is ws.cur and again.hop is ws.hop


class TestTrustedWalkSetPaths:
    """select/concat/split skip validation; their outputs must be
    exactly what the validating constructor would accept as is."""

    @given(walk_sets(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_select_and_split(self, ws, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(len(ws)) < 0.5
        idx = rng.integers(0, max(1, len(ws)), size=rng.integers(0, 10))
        if not len(ws):
            idx = idx[:0]
        for out in (ws.select(mask), ws.select(idx), *ws.split(mask)):
            assert_revalidates(out)
        assert_revalidates(WalkSet.empty())

    @given(st.lists(walk_sets(max_n=8), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_concat(self, sets):
        out = WalkSet.concat(sets)
        assert_revalidates(out)
        assert len(out) == sum(len(s) for s in sets)

    @given(graphs_without_dead_ends(max_vertices=60), st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_advance_outputs(self, g, seed):
        part = partition_graph(g, 512)
        ctx = AdvanceContext.build(g, part, WalkSpec(length=4), make_sampler(g))
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, g.num_vertices, size=25)
        batch = WalkBatch(WalkSet.start(starts, 4))
        res = advance_batch(ctx, batch, list(range(0, part.num_blocks, 2)), rng)
        assert_revalidates(res.completed)
        assert_revalidates(res.roving)


@st.composite
def advance_cases(draw):
    """A graph with dead ends and dense vertices, partitioned into small
    blocks, plus a loaded-block list that may repeat blocks."""
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # Out-degree 0-4 (0 is a dead end); a few hubs get 40-90 out-edges,
    # more than a 128-byte block holds, so they become dense.
    deg = rng.integers(0, 5, size=n)
    deg[rng.choice(n, size=draw(st.integers(0, 3)), replace=False)] = (
        rng.integers(40, 90)
    )
    src = np.repeat(np.arange(n), deg)
    g = CSRGraph.from_edge_list(src, rng.integers(0, n, size=src.size), n)
    part = partition_graph(g, 128)
    loaded = draw(
        st.lists(st.integers(0, part.num_blocks - 1), max_size=2 * part.num_blocks)
    )
    return g, part, loaded, rng


def as_records(batch):
    """``batch`` (a WalkSet and an optional pre_edge array) as records
    and a list, the form the scalar kernel takes."""
    pre = None if batch.pre_edge is None else batch.pre_edge.tolist()
    return WalkBatch(batch.walks.records(), pre)


def run_both(ctx, batch, loaded, seed):
    """(scalar result, vector result, their generators afterwards)."""
    rs, rv = np.random.default_rng(seed), np.random.default_rng(seed)
    return (
        advance_scalar(ctx, as_records(batch), loaded, rs),
        advance_vector(ctx, batch, loaded, rv),
        rs,
        rv,
    )


class TestKernelsAgree:
    """The small-batch scalar kernel is the vector kernel, draw for draw."""

    @given(advance_cases(), st.integers(0, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_same_walks_counts_and_draws(self, case, seed):
        g, part, loaded, rng = case
        ctx = AdvanceContext.build(g, part, WalkSpec(length=6), make_sampler(g))
        deg = g.out_degrees()
        for size in range(1, SMALL_BATCH + 1):
            cur = rng.integers(0, g.num_vertices, size=size)
            ws = WalkSet(cur.copy(), cur, rng.integers(1, 7, size=size))
            # Pre-walk about half the walks that have an out-edge.
            pre = np.where(
                (deg[cur] > 0) & (rng.random(size) < 0.5),
                (rng.random(size) * deg[cur]).astype(np.int64),
                -1,
            )
            for batch in (WalkBatch(ws), WalkBatch(ws, pre)):
                s, v, rs, rv = run_both(ctx, batch, loaded, seed + size)
                for a, b in ((s.completed, v.completed), (s.roving, v.roving)):
                    assert all(type(x) is int for r in a for x in r)
                    assert_revalidates(b)
                    assert a == b.records()
                assert (s.hops, s.guide_ops, s.bias_steps) == (
                    v.hops, v.guide_ops, v.bias_steps
                )
                assert rs.bit_generator.state == rv.bit_generator.state

    @given(advance_cases(), st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_records_of_a_refused_spec_take_the_vector_kernel(self, case, seed):
        """Records of a spec the scalar kernel refuses (stop probability)
        go through the vector kernel, pre-walked edges included, and
        come back as records."""
        g, part, loaded, rng = case
        ctx = AdvanceContext.build(
            g, part, WalkSpec(length=6, stop_probability=0.3), make_sampler(g)
        )
        deg = g.out_degrees()
        for size in (1, 5, SMALL_BATCH):
            cur = rng.integers(0, g.num_vertices, size=size)
            ws = WalkSet(cur.copy(), cur, rng.integers(1, 7, size=size))
            pre = np.where(
                deg[cur] > 0, (rng.random(size) * deg[cur]).astype(np.int64), -1
            )
            batch = WalkBatch(ws, pre)
            rs, rv = np.random.default_rng(seed), np.random.default_rng(seed)
            s = advance_batch(ctx, as_records(batch), loaded, rs)
            v = advance_vector(ctx, batch, loaded, rv)
            assert s.completed == v.completed.records()
            assert s.roving == v.roving.records()
            assert (s.hops, s.guide_ops) == (v.hops, v.guide_ops)
            assert rs.bit_generator.state == rv.bit_generator.state

    @pytest.mark.parametrize(
        "cur, pre, error",
        [
            ([0, 1], [-1, 10**6], ReproError),  # pre-edge beyond the degree
            ([0, 9], None, WalkError),  # vertex 9 of a 9-vertex graph
        ],
    )
    def test_same_errors(self, cur, pre, error):
        g = ring_graph(9)
        ctx = AdvanceContext.build(
            g, partition_graph(g, 128), WalkSpec(length=6), make_sampler(g)
        )
        ws = WalkSet(np.array(cur), np.array(cur), np.array([3, 3]))
        batch = WalkBatch(ws, None if pre is None else np.array(pre))
        raised = []
        for kernel, arg in ((advance_scalar, as_records(batch)), (advance_vector, batch)):
            with pytest.raises(error) as info:
                kernel(ctx, arg, [0], np.random.default_rng(0))
            raised.append(type(info.value))
        assert raised == [error, error]


class TestWalkSemantics:
    @given(graphs_without_dead_ends(), st.integers(1, 8), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_reference_walks_take_full_length(self, g, length, n_walks):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, g.num_vertices, size=n_walks)
        res = reference_walks(g, starts, WalkSpec(length=length), rng)
        # No dead ends exist, so every walk takes exactly `length` hops.
        np.testing.assert_array_equal(res["hops"], np.full(n_walks, length))
        assert res["visits"].sum() == n_walks * (length + 1)

    @given(graphs_without_dead_ends(), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_hop_follows_an_edge(self, g, length):
        rng = np.random.default_rng(1)
        starts = np.zeros(10, dtype=np.int64)
        res = reference_walks(
            g, starts, WalkSpec(length=length), rng, record_trajectories=True
        )
        edge_set = set(zip(*[a.tolist() for a in g.to_edge_list()]))
        for row in res["trajectories"]:
            for a, b in zip(row[:-1], row[1:]):
                if a >= 0 and b >= 0:
                    assert (int(a), int(b)) in edge_set


class TestAdvanceProperties:
    @given(
        graphs_without_dead_ends(max_vertices=60),
        st.integers(1, 6),
        st.integers(1, 60),
        st.integers(0, 2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_walk_conservation(self, g, length, n_walks, seed):
        """completed + roving == input, for any loaded-block subset."""
        part = partition_graph(g, 512)
        spec = WalkSpec(length=length)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, g.num_vertices, size=n_walks)
        batch = WalkBatch(WalkSet.start(starts.astype(np.int64), length))
        loaded = list(range(0, part.num_blocks, 2))  # every other block
        res = advance_batch(ctx, batch, loaded, rng)
        assert res.n_completed + len(res.roving) == n_walks
        # hop budgets never go negative, roving walks have hops left
        if len(res.roving):
            assert res.roving.hop.min() >= 1
        if len(res.completed):
            assert res.completed.hop.min() >= 0

    @given(graphs_without_dead_ends(max_vertices=60), st.integers(0, 2**20))
    @settings(max_examples=30, deadline=None)
    def test_all_blocks_loaded_completes_everything(self, g, seed):
        part = partition_graph(g, 512)
        if part.dense_meta:
            return  # dense landings rove by design
        spec = WalkSpec(length=4)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        rng = np.random.default_rng(seed)
        batch = WalkBatch(WalkSet.start(np.arange(min(20, g.num_vertices)), 4))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert len(res.roving) == 0
        assert res.n_completed == len(batch)

    @given(graphs_without_dead_ends(max_vertices=40))
    @settings(max_examples=20, deadline=None)
    def test_hops_bounded(self, g):
        part = partition_graph(g, 512)
        spec = WalkSpec(length=5)
        ctx = AdvanceContext.build(g, part, spec, make_sampler(g))
        rng = np.random.default_rng(3)
        n = 30
        batch = WalkBatch(WalkSet.start(np.zeros(n, dtype=np.int64), 5))
        res = advance_batch(ctx, batch, list(range(part.num_blocks)), rng)
        assert res.hops <= n * 5


class TestEngineConservation:
    @given(st.integers(0, 2**20), st.integers(50, 300))
    @settings(max_examples=8, deadline=None)
    def test_flashwalker_completes_exactly(self, seed, n_walks):
        from repro.core import FlashWalker
        from repro.graph import rmat

        g = rmat(9, 8, RngRegistry(123).fresh("g"))
        fw = FlashWalker(g, seed=seed)
        res = fw.run(num_walks=n_walks, spec=WalkSpec(length=4))
        assert int(res.counters["walks_completed"]) == n_walks
        assert res.hops <= n_walks * 4
        assert fw.in_transit == 0
