"""Checkpoint/resume for FlashWalker campaigns.

A checkpoint is a *quiescent-state* snapshot: the engine drains its
pipelines (no walk mid-flight through a chip, channel, or the board
pipe) and everything that determines the rest of the run is copied out —
walk buffers, RNG stream states, hardware occupancy horizons, metric
accumulators.  Resuming restores that state into a fresh event queue and
drives the simulation to completion; because every source of
nondeterminism is part of the snapshot, the merged result is *exactly*
the uninterrupted run's.

Each component owns its checkpoint state through the one protocol of
:mod:`repro.common.state`: ``state()`` copies its fields out and
``restore(state)`` copies them back in, and the fields are named once,
in the component's class (``STATE`` for plain attributes, ``PARTS`` for
sub-components).  ``FlashWalker.state()`` holds the engine's own
fields (walk accounting, partition, block placement, background fire
times), its board pipe, the recorded final walks, the armed background
events and the service layer's extra state.  :func:`capture_checkpoint`
adds the config fingerprint, then one entry per component of
:func:`_parts`:

* accelerators — ``ChipAccelerator`` (subgraph slots, failure flag,
  pending sink count), ``ChannelAccelerator``, ``BoardAccelerator``
  (sinks, and its query caches' LRU order) and ``DenseVertexTable``;
* walk state — ``SubgraphScheduler`` (scoreboard, placement, topN),
  ``PartitionWalkBuffer`` (its pool slabs) and ``ForeignerStore``;
* hardware — the ``SSD``: each ``FlashChip`` with its op slots and
  planes, the channel and DRAM buses, the FTL and DFTL;
* the run — ``RngRegistry`` streams, ``StatsRegistry`` counters and
  series, ``FaultModel``/``SlowFaultModel`` counters, and the durability
  layer's ``WalkJournal`` and ``IntegrityTracker``.

The shared helper copies lists, sets, dicts, deques and arrays on the
way out *and* in, so later events on the live run cannot reach back into
a snapshot and one snapshot can be restored any number of times.

The FTL's logical-to-physical map is not copied wholesale on the default
path — that would dwarf the rest of the checkpoint.  There, the FTL
changes only through the engine's subgraph placement and
``retire_active_block`` calls, and victim selection is deterministic
given that call sequence, so ``FTL.state()`` records the placements and
the append-only *remap log*, and ``SSD.restore`` builds a pristine FTL
that replays them: post-recovery page routing matches the crashed
timeline's even after the durability layer's parity-group quarantine
retired blocks mid-run.  DFTL-enabled runs are the exception: background
GC makes the FTL's state time-dependent, so their snapshots carry the
full FTL and CMT state instead.

``repro.core.flashwalker`` imports this package, so this module
imports nothing from ``repro.core``: it reaches the engine only through
the engine object it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import ConfigError, SimulationError
from ..common.state import restore_into, state_of

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "capture_checkpoint",
    "restore_checkpoint",
]


@dataclass
class Checkpoint:
    """One quiescent snapshot of a running campaign.

    ``data`` is None for a bookkeeping-only entry: a checkpoint whose
    cadence, counters and journal truncation were kept but whose engine
    state was not captured (see ``FlashWalker.checkpoint_now``).
    Restoring one raises :class:`SimulationError`.
    """

    time: float
    data: dict | None = field(repr=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done = None if self.data is None else self.data.get("completed_walks")
        return f"Checkpoint(t={self.time:.6f}, completed={done})"


class CheckpointManager:
    """Holds the snapshots of one campaign, newest last.

    ``keep_last`` caps retention: saving beyond the cap evicts the
    oldest snapshots, so long journaled campaigns don't grow memory
    linearly with checkpoint count.  0 (the default) keeps every
    snapshot — the pre-durability behavior.  Recovery only ever needs
    the latest snapshot, so any cap >= 1 is safe for resume.
    """

    def __init__(self, keep_last: int = 0):
        if keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        self.keep_last = int(keep_last)
        self.evicted = 0
        self._checkpoints: list[Checkpoint] = []

    @property
    def latest(self) -> Checkpoint | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def save(self, ckpt: Checkpoint) -> None:
        self._checkpoints.append(ckpt)
        if self.keep_last and len(self._checkpoints) > self.keep_last:
            drop = len(self._checkpoints) - self.keep_last
            del self._checkpoints[:drop]
            self.evicted += drop

    def all(self) -> list[Checkpoint]:
        return list(self._checkpoints)

    def clear(self) -> None:
        self._checkpoints = []

    def __len__(self) -> int:
        return len(self._checkpoints)


# ---------------------------------------------------------------- components


def _parts(fw):
    """The engine's checkpointed components as ``(key, component)``, in
    restore order; a component is None where its layer is off, and
    ``chips``/``channel_accels`` are lists."""
    return (
        ("rng", fw.rngs),
        ("faults", fw.fault_model),
        ("slow_faults", fw.slow_model),
        ("metrics", fw.metrics.stats),
        ("scheduler", fw.scheduler),
        ("pwb", fw.pwb),
        ("foreign", fw.foreign),
        ("board", fw.board),
        ("dense", fw.dense_table),
        ("chips", fw.chips),
        ("channel_accels", fw.channels),
        ("ssd", fw.ssd),
        ("journal", fw.journal),
        ("integrity", fw.integrity),
    )


# ------------------------------------------------------------------- capture


def capture_checkpoint(fw, t: float) -> Checkpoint:
    """Snapshot a quiescent :class:`~repro.core.flashwalker.FlashWalker`."""
    data = {
        # provenance: restore refuses a snapshot from a different config
        "config_fingerprint": fw.config_fingerprint,
        **fw.state(),
    }
    for key, part in _parts(fw):
        data[key] = state_of(part)
    return Checkpoint(time=t, data=data)


# ------------------------------------------------------------------- restore


def restore_checkpoint(fw, ckpt: Checkpoint) -> None:
    """Rebuild ``fw``'s run state and scheduled events from ``ckpt``;
    the caller restarts the event loop (kick chips + barrier check) and
    calls ``sim.run()``."""
    d = ckpt.data
    if d is None:
        raise SimulationError(
            f"checkpoint at t={ckpt.time:.9f} holds no captured engine "
            "state (bookkeeping-only entry); nothing to restore"
        )
    # A snapshot only replays correctly into the exact configuration
    # that produced it (capacities, timings, fault schedule are all
    # baked into the captured state), so one that names no
    # configuration is refused too.
    recorded = d.get("config_fingerprint")
    if recorded is None:
        raise ConfigError(
            f"checkpoint at t={ckpt.time:.9f} records no config "
            "fingerprint; refusing to restore it"
        )
    own = fw.config_fingerprint
    if recorded != own:
        raise ConfigError(
            "checkpoint does not match this engine's configuration: "
            f"checkpoint {recorded}, engine {own}"
        )
    # Quiescent: nothing in transit, so a fresh run state plus the
    # engine's own state is the whole engine-level restore.
    fw._reset_run_state()
    fw.sim.now = ckpt.time
    fw.restore(d)
    # Partition structures first, without re-charging the DRAM mapping
    # stream (that traffic is already inside the restored metrics): the
    # scheduler and walk buffer it builds are filled below, and the
    # board's caches it invalidates are refilled.
    fw._build_partition(fw.current_partition)
    for key, part in _parts(fw):
        restore_into(part, d[key])
    # The registry restore rebuilt every generator; the fault model
    # holds its stream, so it takes the rebuilt one.
    if fw.fault_model is not None:
        fw.fault_model.rng = fw.rngs.stream("faults")
    # Scheduled events: the chip failures still to come, and the
    # background events the snapshot had armed, at its fire times.
    fw._arm_chip_failures()
    fw._arm_background(set(d["armed"]))
