"""Cluster epoch checkpoints capture engine state only when a kill can
read it; every other epoch keeps the bookkeeping with a data-less entry,
and reading one fails loudly."""

import numpy as np
import pytest

import repro.faults.checkpoint as ckpt_mod
from repro.cluster import ClusterConfig, ClusterService
from repro.cluster.shard import ShardRuntime, ShardStepCommand
from repro.common import DurabilityConfig, FlashWalkerConfig, RngRegistry
from repro.common.errors import SimulationError
from repro.core import FlashWalker
from repro.graph import rmat
from repro.service.request import QueryRequest
from repro.walks import WalkSpec

SHARD_CFG = FlashWalkerConfig(
    partition_subgraphs=4,
    board_hot_subgraphs=1,
    channel_hot_subgraphs=0,
    durability=DurabilityConfig(enabled=True, journal_interval=25e-6),
)


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, RngRegistry(55).fresh("g"))


def test_captures_only_in_kill_epochs(graph, monkeypatch):
    captures = []
    steps: dict[int, int] = {}
    pending: set[int] = set()  # shards with an armed kill not yet fired
    kill_epochs = []  # (shard, epoch) in which a kill was armed or pending
    failovers = []
    capture = ckpt_mod.capture_checkpoint
    step = ShardRuntime.step

    def counted_capture(fw, t):
        captures.append(t)
        return capture(fw, t)

    def counted_step(self, cmd):
        steps[self.shard_id] = steps.get(self.shard_id, 0) + 1
        if cmd.kill_delay is not None:
            pending.add(self.shard_id)
        if self.shard_id in pending:
            kill_epochs.append((self.shard_id, cmd.epoch))
        result = step(self, cmd)
        if result.failover is not None:
            pending.discard(self.shard_id)
            failovers.append((self.shard_id, cmd.epoch))
        return result

    monkeypatch.setattr(ckpt_mod, "capture_checkpoint", counted_capture)
    monkeypatch.setattr(ShardRuntime, "step", counted_step)
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
    # The epoch that armed the kill drained before it fired, so the kill
    # stayed pending until a later epoch of the same shard: one capture
    # per epoch from arming to firing, not one per stepped shard per
    # epoch.
    assert failovers == [kill_epochs[-1]]
    assert len(kill_epochs) > 1
    assert len(captures) == len(kill_epochs)
    assert len(captures) < sum(steps.values())
    for shard in out.report["shards"]:
        ckpts = shard["durability"]["checkpoints"]
        assert ckpts["taken"] == steps[shard["extra"]["shard"]]
        assert ckpts["retained"] == ckpts["taken"]


def _session(graph):
    fw = FlashWalker(graph, SHARD_CFG, seed=9)
    fw.start_session(WalkSpec(length=6), expected_walks=48)
    return fw


def test_data_less_checkpoint_keeps_bookkeeping(graph):
    fw = _session(graph)
    fw.checkpoint_now()
    fw.checkpoint_now(capture=False)
    snap = fw.latest_checkpoint
    assert snap.time == fw.sim.now and snap.data is None
    assert fw.metrics.checkpoints.total == 2
    assert fw._durability_section()["checkpoints"]["retained"] == 2


def test_restoring_data_less_checkpoint_raises(graph):
    fw = _session(graph)
    fw.checkpoint_now(capture=False)
    with pytest.raises(SimulationError, match="no captured engine state"):
        fw.restore_for_resume()
    with pytest.raises(SimulationError, match="not captured"):
        fw.recover()


def test_kill_in_uncaptured_epoch_raises_from_step(graph):
    rt = ShardRuntime(0, graph, SHARD_CFG, 9, spec_length=6, expected_walks=48)
    rt.setup()
    fw = rt.fw
    t0 = fw.sim.now
    src = RngRegistry(1).fresh("starts").integers(0, graph.num_vertices, 24)
    # Nothing is armed when step decides, so it skips the capture; the
    # kill is armed by hand once the epoch is running.
    fw.sim.at(t0, lambda: fw.arm_power_loss(t0 + 1e-6))
    cmd = ShardStepCommand(
        epoch=4, batches=[(t0, src, src.copy(), np.full(24, 6))]
    )
    with pytest.raises(SimulationError) as info:
        rt.step(cmd)
    assert type(info.value) is SimulationError
    assert "shard 0: power loss in epoch 4" in str(info.value)
    assert fw.latest_checkpoint.data is None


def test_promotion_checks_crash_time_without_assert(graph, monkeypatch):
    rt = ShardRuntime(1, graph, SHARD_CFG, 9, spec_length=6, expected_walks=48)
    rt.setup()
    fw = rt.fw
    context = fw._crash_context

    def shifted(snap):
        ctx = context(snap)
        return dict(ctx, t_crash=ctx["t_crash"] + 1e-9)

    monkeypatch.setattr(fw, "_crash_context", shifted)
    src = RngRegistry(1).fresh("starts").integers(0, graph.num_vertices, 24)
    cmd = ShardStepCommand(
        epoch=2, batches=[(fw.sim.now, src, src.copy(), np.full(24, 6))],
        kill_delay=1e-6,
    )
    with pytest.raises(SimulationError, match="shard 1: power loss at t="):
        rt.step(cmd)
