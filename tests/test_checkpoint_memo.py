"""Checkpoint capture reuses unchanged per-chip entries: the memoized
snapshot must equal a full capture at every point, including after a
restore moves the chip counters backwards."""

import numpy as np
import pytest

import repro.faults.checkpoint as ckpt_mod
from repro.cluster import ClusterConfig, ClusterService
from repro.common import DurabilityConfig, FlashWalkerConfig, RngRegistry
from repro.core import FlashWalker
from repro.graph import rmat
from repro.service.request import QueryRequest
from repro.walks import WalkSpec
from repro.walks.state import WalkSet

CAPTURE = ckpt_mod.capture_checkpoint

SHARD_CFG = FlashWalkerConfig(
    partition_subgraphs=4,
    board_hot_subgraphs=1,
    channel_hot_subgraphs=0,
    durability=DurabilityConfig(enabled=True, journal_interval=25e-6),
)


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, RngRegistry(55).fresh("g"))


def assert_same(a, b, path="data"):
    """Deep equality that treats numpy arrays by value and names the
    first differing path."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_same(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    else:
        assert a == b, path


def full_capture(fw, t):
    """A capture that reuses nothing; leaves the engine's memo as it was."""
    memo = fw._ckpt_chip_memo
    fw._ckpt_chip_memo = {}
    try:
        return CAPTURE(fw, t)
    finally:
        fw._ckpt_chip_memo = memo


def test_memoized_capture_equals_full_capture_every_epoch(graph, monkeypatch):
    stats = {"captures": 0, "reused": 0}
    previous = {}

    def checked(fw, t):
        ckpt = CAPTURE(fw, t)
        assert_same(ckpt.data, full_capture(fw, t).data)
        prev = previous.get(id(fw))
        if prev is not None:
            stats["reused"] += sum(
                a is b for a, b in zip(ckpt.data["chip_hw"], prev["chip_hw"])
            )
        previous[id(fw)] = ckpt.data
        stats["captures"] += 1
        return ckpt

    monkeypatch.setattr(ckpt_mod, "capture_checkpoint", checked)
    ccfg = ClusterConfig(
        n_shards=2,
        segment_hops=2,
        max_walk_length=6,
        link_loss_prob=0.05,
        kill_schedule=((40e-6, 1),),
    )
    reqs = [
        QueryRequest(query_id=i, arrival=i * 30e-6, num_walks=16, length=6,
                     deadline=50e-3)
        for i in range(4)
    ]
    out = ClusterService(graph, SHARD_CFG, ccfg, seed=7).run(reqs)
    cl = out.report["cluster"]
    assert cl["rto"]["count"] == 1 and cl["audit"]["violations"] == 0
    assert stats["captures"] >= cl["epochs"]
    # The memo did its job: most chips sat idle between epoch boundaries.
    assert stats["reused"] > stats["captures"]


def _inject(fw, walks: WalkSet, at: float) -> None:
    fw.sim.at(at, lambda: fw.inject_walks(walks))
    fw.sim.run()


def _walks(graph, seed, n=24):
    src = RngRegistry(seed).fresh("starts").integers(0, graph.num_vertices, n)
    return WalkSet(src.copy(), src.copy(), np.full(n, 6, dtype=np.int64))


def test_restore_of_older_checkpoint_invalidates_memo(graph):
    fw = FlashWalker(graph, SHARD_CFG, seed=9)
    fw.start_session(WalkSpec(length=6), expected_walks=96)
    _inject(fw, _walks(graph, 1), fw.sim.now)
    fw.checkpoint_now()
    older = fw.latest_checkpoint
    epoch_b = _walks(graph, 2)
    _inject(fw, WalkSet(epoch_b.src.copy(), epoch_b.cur.copy(),
                        epoch_b.hop.copy()), fw.sim.now)
    fw.checkpoint_now()
    newer = fw.latest_checkpoint
    # Diverge: replay epoch B's walks from the older snapshot, but later.
    # The chips repeat the same operations, so their change counters
    # come back to the values memoized at `newer`, while every
    # occupancy horizon is shifted.
    fw.restore_for_resume(older)
    _inject(fw, epoch_b, fw.sim.now + 50e-6)
    fw.checkpoint_now()
    after = fw.latest_checkpoint
    assert_same(after.data, full_capture(fw, fw.sim.now).data)
    assert after.data["chips"] == newer.data["chips"]
    assert after.data["chip_hw"] != newer.data["chip_hw"]
