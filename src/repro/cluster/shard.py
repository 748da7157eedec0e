"""One cluster shard: a FlashWalker engine driven in drain epochs.

The coordinator advances the cluster in barrier-synchronized epochs.
Each epoch a shard receives a :class:`ShardStepCommand` — walk-segment
batches to inject (global walk id in ``src``, current vertex in
``cur``, leased hops in ``hop``) plus an optional armed power loss —
runs its local simulator to drain, and returns a
:class:`ShardStepResult` with the completed segments, its local clock,
and its health signals.

Failover is built in: every epoch starts with a quiescent engine
checkpoint, so when the armed kill fires mid-epoch the read replica is
"promoted" by restoring that checkpoint (its state is exactly what the
shard's durable checkpoint + walk journal reconstruct — the measured
catch-up cost is the engine's journal-replay RTO accounting) and
replaying the identical injection schedule.  The replayed epoch is
bit-identical to the uninterrupted one, which is why a killed cluster
run's shard reports match the baseline's outside the failover
timeline.  Only a promotion reads the checkpoint, so its engine state
is captured only in epochs where a kill can fire; every other epoch
keeps the checkpoint's bookkeeping with a data-less entry, and a
promotion that meets one raises :class:`SimulationError`.

Both the serial coordinator and the process-pool workers drive this
same class, so execution mode cannot change results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import PowerLossError, SimulationError
from ..walks.spec import WalkSpec
from ..walks.state import WalkSet, as_walkset

__all__ = ["ShardStepCommand", "ShardStepResult", "ShardRuntime"]


@dataclass
class ShardStepCommand:
    """One epoch of work for one shard."""

    epoch: int
    #: Injection batches: ``(t_inject_min, ids, verts, hops)`` — walks
    #: board at ``max(local_now, t_inject_min)`` (migration deliveries
    #: arrive later than local resident walks).
    batches: list = field(default_factory=list)
    #: Seconds after local now at which the armed power loss fires
    #: (None = no kill this epoch).
    kill_delay: float | None = None

    def walk_count(self) -> int:
        return sum(len(ids) for _, ids, _, _ in self.batches)


@dataclass
class ShardStepResult:
    """What one shard's epoch produced."""

    shard_id: int
    epoch: int
    t_start: float
    t_end: float
    injected: int
    #: Completed segments in engine event order: ``(t, ids, verts)``.
    completions: list = field(default_factory=list)
    #: Degradation signals the coordinator feeds its per-shard breaker.
    health: dict = field(default_factory=dict)
    engine_total: int = 0
    engine_completed: int = 0
    #: Replica-promotion record when the armed kill fired (else None).
    failover: dict | None = None


class ShardRuntime:
    """Owns one shard's engine; lives in-process or in a pool worker."""

    def __init__(self, shard_id: int, graph, cfg, seed: int, *,
                 spec_length: int, expected_walks: int, telemetry=None):
        from ..core.flashwalker import FlashWalker

        if not cfg.durability.enabled:
            raise SimulationError(
                f"shard {shard_id}: cluster shards need durability.enabled "
                "(failover replays from checkpoint + walk journal)"
            )
        if cfg.faults.checkpoint_interval > 0:
            raise SimulationError(
                f"shard {shard_id}: periodic checkpoints would land "
                "mid-epoch; the cluster checkpoints every epoch boundary "
                "itself (set faults.checkpoint_interval = 0)"
            )
        self.shard_id = int(shard_id)
        self.fw = FlashWalker(graph, cfg, seed=seed, telemetry=telemetry)
        self._spec_length = int(spec_length)
        self._expected = int(expected_walks)
        self._completions: list = []

    # ------------------------------------------------------------------ setup

    def setup(self) -> float:
        """Open the walk session; returns local readiness time."""
        t0 = self.fw.start_session(
            WalkSpec(length=self._spec_length), expected_walks=self._expected
        )
        self.fw._on_completed = self._collect
        return t0

    def _collect(self, t: float, walks: WalkSet | list) -> None:
        if len(walks):
            walks = as_walkset(walks)
            self._completions.append(
                (float(t), walks.src.copy(), walks.cur.copy())
            )

    # ------------------------------------------------------------------- step

    def _schedule_batches(self, batches) -> None:
        fw = self.fw
        for t_min, ids, verts, hops in batches:
            t_inj = max(fw.sim.now, float(t_min))
            # Copy: the engine advances walk arrays in place, and a
            # promotion replays these same batches — they must be as
            # pristine the second time as the first.
            walks = WalkSet(
                np.asarray(ids, dtype=np.int64).copy(),
                np.asarray(verts, dtype=np.int64).copy(),
                np.asarray(hops, dtype=np.int64).copy(),
            )
            fw.sim.at(t_inj, fw.inject_walks, walks)

    def step(self, cmd: ShardStepCommand) -> ShardStepResult:
        """Run one epoch to drain; recover in place if the kill fires."""
        fw = self.fw
        self._completions = []
        t_start = fw.sim.now
        # Epoch-boundary checkpoint: the replica's recovery point.  Its
        # state is captured only if a kill can fire this epoch: one is
        # armed now, or an earlier one has not fired yet (an epoch that
        # drains first re-arms it at the next injection).
        fw.checkpoint_now(
            cmd.kill_delay is not None
            or fw._crashes_fired < len(fw.power_loss_times)
        )
        if cmd.kill_delay is not None:
            fw.arm_power_loss(fw.sim.now + float(cmd.kill_delay))
        self._schedule_batches(cmd.batches)
        failover = None
        try:
            fw.sim.run()
        except PowerLossError as err:
            failover = self._promote(cmd, err)
        if not fw._quiescent():
            raise SimulationError(
                f"shard {self.shard_id}: engine not drained at epoch "
                f"{cmd.epoch} barrier (in_transit={fw.in_transit})"
            )
        return ShardStepResult(
            shard_id=self.shard_id,
            epoch=cmd.epoch,
            t_start=t_start,
            t_end=fw.sim.now,
            injected=cmd.walk_count(),
            completions=self._completions,
            health=self._health(),
            engine_total=int(fw.total_walks),
            engine_completed=int(fw.completed_walks),
            failover=failover,
        )

    def _promote(self, cmd: ShardStepCommand, err: PowerLossError) -> dict:
        """Promote the read replica: restore the epoch-start state and
        replay the identical injection schedule.

        The replica's catch-up cost is the engine's RPO/RTO accounting
        (checkpoint restore + journal replay + torn-page repair),
        computed against the crashed timeline *before* the restore
        wipes it.
        """
        fw = self.fw
        snap = fw.latest_checkpoint
        if snap.data is None:
            raise SimulationError(
                f"shard {self.shard_id}: power loss in epoch {cmd.epoch}, "
                "whose checkpoint holds no captured engine state"
            )
        ctx = fw._crash_context(snap)
        pre_crash = len(self._completions)
        fw.restore_for_resume(snap)
        # restore resets the completion hook and discards the crashed
        # timeline's partial epoch; the replay re-produces it exactly.
        fw._on_completed = self._collect
        self._completions = []
        self._schedule_batches(cmd.batches)
        fw.sim.run()
        if float(err.at) != ctx["t_crash"]:
            raise SimulationError(
                f"shard {self.shard_id}: power loss at t={err.at!r} in epoch "
                f"{cmd.epoch}, but the crash record says t={ctx['t_crash']!r}"
            )
        return {
            "shard": self.shard_id,
            "epoch": cmd.epoch,
            "segments_discarded": pre_crash,
            **ctx,
        }

    # ----------------------------------------------------------------- health

    def _health(self) -> dict:
        """Degradation counters the coordinator's breaker polls."""
        fw = self.fw
        fm = fw.fault_model
        it = getattr(fw, "integrity", None)
        return {
            "chip_failures": int(fm.chip_failures) if fm is not None else 0,
            "reads_exhausted": int(fm.reads_exhausted) if fm is not None else 0,
            "corruption_detected": int(it.detected) if it is not None else 0,
        }

    # ----------------------------------------------------------------- report

    def finalize(self) -> dict:
        """Close the session; returns the shard's engine run report."""
        result = self.fw._finalize_run()
        self.fw._on_completed = None
        return result.to_report(extra={"shard": self.shard_id})
