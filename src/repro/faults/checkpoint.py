"""Checkpoint/resume for FlashWalker campaigns.

A checkpoint is a *quiescent-state* snapshot: the engine drains its
pipelines (no walk mid-flight through a chip, channel, or the board
pipe) and everything that determines the rest of the run is copied out —
walk buffers, RNG stream states, hardware occupancy horizons, metric
accumulators.  Resuming restores that state into a fresh event queue and
drives the simulation to completion; because every source of
nondeterminism is part of the snapshot, the merged result is *exactly*
the uninterrupted run's.

The FTL's logical-to-physical map is not copied wholesale — that would
dwarf the rest of the checkpoint.  Instead the snapshot records the
FTL's append-only *remap log* (the sequence of ``retire_active_block``
calls), and restore rebuilds a pristine FTL and replays the log: victim
selection is deterministic given the call sequence, so the rebuilt map
routes pages exactly as the captured one did.  This matters once the
durability layer's parity-group quarantine retires blocks mid-run —
post-recovery page routing must match the crashed timeline's.
DFTL-enabled runs are the exception: background GC
makes the FTL's state time-dependent, so their snapshots carry the full
FTL and CMT state instead.

Core modules are imported lazily inside the capture/restore functions:
``repro.core.flashwalker`` imports this package, so module-level imports
the other way would be circular.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field

from ..common.errors import ConfigError, SimulationError
from ..walks.state import WalkSet

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


# --------------------------------------------------------------- pack helpers


def _pack_walks(ws: WalkSet) -> tuple:
    return (ws.src.copy(), ws.cur.copy(), ws.hop.copy())


def _unpack_walks(data: tuple) -> WalkSet:
    src, cur, hop = data
    return WalkSet(src.copy(), cur.copy(), hop.copy())


def _link_state(link) -> tuple:
    return (link._busy_until, link.bytes_moved, link.busy_time, link.transfers)


def _set_link(link, s: tuple) -> None:
    link._busy_until, link.bytes_moved, link.busy_time, link.transfers = s


def _fcfs_state(res) -> tuple:
    return (list(res._free_at), res.busy_time, res.requests, res.queued_time)


def _set_fcfs(res, s: tuple) -> None:
    free_at, busy, requests, queued = s
    res._free_at = list(free_at)
    heapq.heapify(res._free_at)
    res.busy_time = busy
    res.requests = requests
    res.queued_time = queued


def _chip_hw_state(chip) -> dict:
    return {
        "ops": _fcfs_state(chip._op_slots),
        "reads": chip.reads,
        "programs": chip.programs,
        "erases": chip.erases,
        "bytes_read": chip.bytes_read,
        "bytes_programmed": chip.bytes_programmed,
        "prog_cursor": chip._prog_cursor,
        "planes": [
            (
                pl.busy_until,
                pl.reads,
                pl.programs,
                pl.erases,
                pl.bytes_read,
                pl.bytes_programmed,
                pl.busy_time,
            )
            for die in chip.dies
            for pl in die.planes
        ],
    }


def _chip_state(c) -> dict:
    return {
        "loaded": list(c.loaded),
        "failed": c.failed,
        "pending_completed": c.pending_completed,
        "batches": c.batches,
        "hops": c.hops,
        "loads": c.loads,
        "reload_hits": c.reload_hits,
    }


def _set_chip_hw(chip, s: dict) -> None:
    _set_fcfs(chip._op_slots, s["ops"])
    chip.reads = s["reads"]
    chip.programs = s["programs"]
    chip.erases = s["erases"]
    chip.bytes_read = s["bytes_read"]
    chip.bytes_programmed = s["bytes_programmed"]
    chip._prog_cursor = s["prog_cursor"]
    planes = [pl for die in chip.dies for pl in die.planes]
    for pl, ps in zip(planes, s["planes"]):
        (
            pl.busy_until,
            pl.reads,
            pl.programs,
            pl.erases,
            pl.bytes_read,
            pl.bytes_programmed,
            pl.busy_time,
        ) = ps


def _metrics_state(metrics) -> dict:
    return {
        "counters": {
            name: (c.total, c.events)
            for name, c in metrics.stats.counters.items()
        },
        "series": {
            name: (s.bucket, dict(s._sums), s.total, s.events, s.last_time)
            for name, s in metrics.stats.series.items()
        },
    }


def _set_metrics(metrics, state: dict) -> None:
    for name, (total, events) in state["counters"].items():
        c = metrics.stats.counter(name)
        c.total = total
        c.events = events
    for name, (bucket, sums, total, events, last_time) in state["series"].items():
        s = metrics.stats.timeseries(name, bucket)
        s._sums = dict(sums)
        s.total = total
        s.events = events
        s.last_time = last_time


# ------------------------------------------------------------------- capture


def capture_checkpoint(fw, t: float) -> Checkpoint:
    """Snapshot a quiescent :class:`~repro.core.flashwalker.FlashWalker`."""
    fm = fw.fault_model
    data = {
        # provenance: restore refuses a snapshot from a different config
        "config_fingerprint": fw.config_fingerprint,
        # walk accounting
        "spec": fw.spec,
        "total_walks": fw.total_walks,
        "completed_walks": fw.completed_walks,
        "current_partition": fw.current_partition,
        "entry_capacity": fw.entry_capacity,
        "dense_entry_capacity": fw.dense_entry_capacity,
        "flush_cursor": fw._flush_cursor,
        "next_checkpoint": fw._next_checkpoint,
        "block_chip": fw.block_chip.copy(),
        "rebuilding_blocks": set(fw._rebuilding_blocks),
        "finals": (
            None
            if fw._finals is None
            else [_pack_walks(w) for w in fw._finals]
        ),
        # stochastic state (``state`` builds a fresh dict on every read)
        "rng": {
            name: gen.bit_generator.state
            for name, gen in fw.rngs._streams.items()
        },
        # metrics
        "metrics": _metrics_state(fw.metrics),
        # scheduler scoreboard + partition walk buffer
        "scheduler": fw.scheduler.snapshot(),
        "pwb": fw.pwb.snapshot(),
        # foreigner pools
        "foreign": {
            int(pid): [_pack_walks(w) for w in pool]
            for pid, pool in enumerate(fw.foreign._pools)
            if pool
        },
        # board accelerator
        "board": {
            "completed_pending_bytes": fw.board.completed_pending_bytes,
            "foreigner_pending_bytes": fw.board.foreigner_pending_bytes,
            "batches": fw.board.batches,
            "hops": fw.board.hops,
            "directed_walks": fw.board.directed_walks,
            "completed_flushes": fw.board.completed_flushes,
            "foreigner_flushes": fw.board.foreigner_flushes,
            "caches": (
                None
                if fw.board.caches is None
                else [
                    (list(c._lru.keys()), c.hits, c.misses)
                    for c in fw.board.caches.caches
                ]
            ),
        },
        "dense": (
            fw.dense_table.bloom_queries,
            fw.dense_table.bloom_positives,
            fw.dense_table.false_positives,
            fw.dense_table.hash_probes,
        ),
        # accelerators
        "chips": [_chip_state(c) for c in fw.chips],
        "channel_accels": [
            (ch.batches, ch.hops, ch.range_queries) for ch in fw.channels
        ],
        # hardware occupancy + byte counters
        "chip_hw": [
            _chip_hw_state(fw.ssd.chip_flat(i))
            for i in range(fw.cfg.ssd.total_chips)
        ],
        "channel_buses": [_link_state(ch.bus) for ch in fw.ssd.channels],
        "dram_bus": _link_state(fw.ssd.dram.bus),
        "board_pipe": _fcfs_state(fw._board_pipe),
        # FTL remap history (replayed against a pristine FTL on restore)
        "ftl_remap_log": list(fw.ssd.ftl.remap_log),
        # DFTL-enabled runs: background GC makes the FTL's state
        # time-dependent (no longer derivable by replaying placement +
        # remap log), so the full mapping/allocation state — and the
        # CMT/translation counters — are snapshotted explicitly.
        "ftl_state": None if fw.ssd.dftl is None else fw.ssd.ftl.state(),
        "dftl_state": None if fw.ssd.dftl is None else fw.ssd.dftl.state(),
        # recurring background events: next absolute fire times (their
        # negative priorities make these strictly > ckpt.time) and which
        # were armed; a drained engine (cluster epoch boundary) has none
        # armed, and the resumed run arms them at its next injection
        "background": (dict(fw._fire_times), sorted(fw._armed)),
        # durability layer: journal/integrity state
        "durability": (
            None
            if not fw.cfg.durability.enabled
            else {
                "journal": (
                    None if fw.journal is None else fw.journal.state()
                ),
                "integrity": (
                    None if fw.integrity is None else fw.integrity.state()
                ),
            }
        ),
        # opaque extra state from layers above the engine (query service)
        "extra": (
            fw._checkpoint_extra() if fw._checkpoint_extra is not None else None
        ),
        # fault model
        "faults": (
            None
            if fm is None
            else {
                "failed_chips": set(fm.failed_chips),
                "read_faults": fm.read_faults,
                "read_retries": fm.read_retries,
                "reads_exhausted": fm.reads_exhausted,
                "bad_block_remaps": fm.bad_block_remaps,
                "crc_errors": fm.crc_errors,
                "crc_retries": fm.crc_retries,
                "crc_resets": fm.crc_resets,
                "chip_failures": fm.chip_failures,
            }
        ),
        # slow-fault model: windows are a pure function of (seed, config)
        # so only the counters need carrying across a restore.
        "slow_faults": (
            None if fw.slow_model is None else fw.slow_model.snapshot()
        ),
    }
    return Checkpoint(time=t, data=data)


# ------------------------------------------------------------------- restore


def restore_checkpoint(fw, ckpt: Checkpoint) -> None:
    """Rebuild ``fw``'s run state and scheduled events from ``ckpt``;
    the caller restarts the event loop (kick chips + barrier check) and
    calls ``sim.run()``."""
    from ..core.advance import AdvanceContext
    from ..walks.sampling import make_sampler

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
    fw.spec = d["spec"]
    fw._reset_run_state()
    # RNG streams become exactly the snapshot's set: streams first created
    # after the checkpoint in the crashed run must not leak advanced state
    # into the resumed run.
    fw.rngs._streams = {}
    for name, state in d["rng"].items():
        fw.rngs.stream(name).bit_generator.state = state
    if fw.fault_model is not None:
        fw.fault_model.rng = fw.rngs.stream("faults")
        fs = d["faults"]
        fm = fw.fault_model
        fm.failed_chips = set(fs["failed_chips"])
        fm.read_faults = fs["read_faults"]
        fm.read_retries = fs["read_retries"]
        fm.reads_exhausted = fs["reads_exhausted"]
        fm.bad_block_remaps = fs["bad_block_remaps"]
        fm.crc_errors = fs["crc_errors"]
        fm.crc_retries = fs["crc_retries"]
        fm.crc_resets = fs["crc_resets"]
        fm.chip_failures = fs["chip_failures"]
    if fw.slow_model is not None:
        fw.slow_model.restore(d["slow_faults"])
    # clock + walk accounting (quiescent: nothing in transit)
    fw.sim.now = ckpt.time
    fw.total_walks = d["total_walks"]
    fw.completed_walks = d["completed_walks"]
    fw.in_transit = 0
    fw.entry_capacity = d["entry_capacity"]
    fw.dense_entry_capacity = d["dense_entry_capacity"]
    fw._flush_cursor = d["flush_cursor"]
    fw._next_checkpoint = d["next_checkpoint"]
    fw.block_chip[:] = d["block_chip"]
    fw._rebuilding_blocks = set(d["rebuilding_blocks"])
    fw._finals = (
        None
        if d["finals"] is None
        else [_unpack_walks(w) for w in d["finals"]]
    )
    # advance context (deterministic rebuild from graph + spec)
    sampler = make_sampler(fw.graph, fw.spec.biased)
    fw.ctx = AdvanceContext.build(fw.graph, fw.part, fw.spec, sampler)
    # metrics
    _set_metrics(fw.metrics, d["metrics"])
    # partition structures — rebuilt without re-charging the DRAM mapping
    # stream (that traffic is already inside the restored metrics)
    fw._build_partition(d["current_partition"])
    fw.scheduler.restore(d["scheduler"])
    fw.pwb.restore(d["pwb"])
    # foreigner pools
    for pid_i, pool in d["foreign"].items():
        ws_list = [_unpack_walks(w) for w in pool]
        fw.foreign._pools[int(pid_i)] = ws_list
        fw.foreign._counts[int(pid_i)] = sum(len(w) for w in ws_list)
    # board accelerator (set_mapping above invalidated the caches; refill)
    b = d["board"]
    fw.board.completed_pending_bytes = b["completed_pending_bytes"]
    fw.board.foreigner_pending_bytes = b["foreigner_pending_bytes"]
    fw.board.batches = b["batches"]
    fw.board.hops = b["hops"]
    fw.board.directed_walks = b["directed_walks"]
    fw.board.completed_flushes = b["completed_flushes"]
    fw.board.foreigner_flushes = b["foreigner_flushes"]
    if fw.board.caches is not None and b["caches"] is not None:
        for cache, (keys, hits, misses) in zip(
            fw.board.caches.caches, b["caches"]
        ):
            cache._lru = OrderedDict((k, None) for k in keys)
            cache.hits = hits
            cache.misses = misses
    (
        fw.dense_table.bloom_queries,
        fw.dense_table.bloom_positives,
        fw.dense_table.false_positives,
        fw.dense_table.hash_probes,
    ) = d["dense"]
    # accelerators
    for chip, cs in zip(fw.chips, d["chips"]):
        chip.loaded = list(cs["loaded"])
        chip.failed = cs["failed"]
        chip.pending_completed = cs["pending_completed"]
        chip.batches = cs["batches"]
        chip.hops = cs["hops"]
        chip.loads = cs["loads"]
        chip.reload_hits = cs["reload_hits"]
    for ch, (batches, hops, range_queries) in zip(
        fw.channels, d["channel_accels"]
    ):
        ch.batches = batches
        ch.hops = hops
        ch.range_queries = range_queries
    # hardware occupancy horizons + byte counters
    for i, hw in enumerate(d["chip_hw"]):
        _set_chip_hw(fw.ssd.chip_flat(i), hw)
    for ch_hw, bus_state in zip(fw.ssd.channels, d["channel_buses"]):
        _set_link(ch_hw.bus, bus_state)
    _set_link(fw.ssd.dram.bus, d["dram_bus"])
    _set_fcfs(fw._board_pipe, d["board_pipe"])
    # FTL: rebuild pristine placement and replay the remap log so
    # post-recovery page routing matches the crashed timeline's.
    # DFTL-enabled snapshots carry the full FTL state instead (replay
    # can't reproduce background GC's block shuffling).
    from ..flash.ftl import FTL

    ftl = FTL(fw.cfg.ssd)
    if fw.ssd.dftl is not None:
        ftl.restore_state(d["ftl_state"])
        fw.ssd.dftl.restore_state(d["dftl_state"])
    else:
        ftl.place_striped(fw.part.num_blocks, fw.cfg.subgraph_pages())
        for flat in d["ftl_remap_log"]:
            ftl.retire_active_block(int(flat))
    fw.ssd.ftl = ftl
    # durability layer: journal/integrity contents
    dur = d["durability"]
    if dur is not None:
        if fw.journal is not None:
            fw.journal.restore(dur["journal"])
        if fw.integrity is not None:
            fw.integrity.restore(dur["integrity"])
    fw._restored_extra = d["extra"]
    # Scheduled events: the chip failures still to come, and the
    # background events the snapshot had armed, at its fire times.
    fire_times, armed = d["background"]
    fw._fire_times = dict(fire_times)
    fw._arm_chip_failures()
    fw._arm_background(set(armed))
