"""Span tracer with Chrome trace-event (Perfetto-compatible) export.

The tracer is a passive recorder: components call :meth:`Tracer.span`
/ :meth:`Tracer.instant` / :meth:`Tracer.count` with *simulation* times
they already computed, and the tracer files them under a (pid, tid)
track.  It never schedules events, never draws randomness, and never
feeds anything back into the timing model, so enabling it cannot change
a run's simulated timestamps.

Alongside raw spans the tracer keeps its own
:class:`~repro.sim.stats.StatsRegistry` of **utilization timelines**
(plane / bus busy-time per bucket) and **latency histograms** (page
reads, bus transfers, subgraph loads, accelerator batches); these feed
``RunResult.to_report()`` percentiles and the Fig. 8-style analyses the
whole-run counters cannot answer.

Track layout (Perfetto process/thread rows)::

    pid 1  board accelerator      (tid 0 pipeline, tid 1 scheduler)
    pid 2  channel accelerators   (tid = channel id)
    pid 3  chip accelerators      (tid = flat chip id)
    pid 4  ONFI channel buses     (tid = channel id)
    pid 5  NAND flash chips       (tid = flat chip id)
    pid 6  resilience / faults    (tid 0)
    pid 7  run / partitions       (tid 0)

Chrome trace-event JSON uses microsecond timestamps; simulation seconds
are scaled by 1e6 on export, so one simulated microsecond reads as one
trace microsecond in the Perfetto UI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from ..common.errors import ReproError
from ..sim.stats import StatsRegistry

__all__ = [
    "TraceConfig",
    "Tracer",
    "validate_trace",
    "CAT_FLASH",
    "CAT_BUS",
    "CAT_ACCEL",
    "CAT_SCHED",
    "CAT_FAULT",
    "CAT_CHECKPOINT",
    "CAT_RUN",
]

# -- span categories (the "cat" field; filterable via TraceConfig) ----------

CAT_FLASH = "flash"  #: NAND array ops: page reads/programs/erases
CAT_BUS = "bus"  #: ONFI channel bus transfers
CAT_ACCEL = "accel"  #: accelerator busy periods (all three levels)
CAT_SCHED = "sched"  #: subgraph scheduler decisions / topN refreshes
CAT_FAULT = "fault"  #: read-retry ladders, CRC retries, chip failovers
CAT_CHECKPOINT = "ckpt"  #: checkpoint drain barriers and snapshots
CAT_RUN = "run"  #: run-level phases: preload, partitions, finalize

ALL_CATEGORIES = frozenset(
    {CAT_FLASH, CAT_BUS, CAT_ACCEL, CAT_SCHED, CAT_FAULT, CAT_CHECKPOINT, CAT_RUN}
)

# -- track ids --------------------------------------------------------------

PID_BOARD = 1
PID_CHANNEL_ACCEL = 2
PID_CHIP_ACCEL = 3
PID_BUS = 4
PID_FLASH = 5
PID_FAULTS = 6
PID_RUN = 7

_PROCESS_NAMES = {
    PID_BOARD: "board accelerator",
    PID_CHANNEL_ACCEL: "channel accelerators",
    PID_CHIP_ACCEL: "chip accelerators",
    PID_BUS: "ONFI channel buses",
    PID_FLASH: "NAND flash chips",
    PID_FAULTS: "resilience / faults",
    PID_RUN: "run",
}

#: Seconds -> Chrome trace microseconds.
_US = 1e6


@dataclass(frozen=True)
class TraceConfig:
    """What to record.  Constructing one does not start tracing; pass it
    to ``FlashWalker(..., trace=TraceConfig())``.

    ``categories=None`` records every category; pass a subset (e.g.
    ``{"accel", "sched"}``) to cut trace size.  ``max_events`` bounds
    memory — once reached, further spans are counted but dropped (the
    drop count lands in the exported metadata so truncation is never
    silent).
    """

    #: Span categories to record; ``None`` = all.
    categories: frozenset[str] | None = None
    #: Hard cap on recorded trace events (dropped beyond, with a count).
    max_events: int = 1_000_000
    #: Bucket width (simulated seconds) of the utilization timelines.
    utilization_bucket: float = 50e-6

    def validate(self) -> "TraceConfig":
        if self.max_events < 1:
            raise ReproError(f"max_events must be >= 1, got {self.max_events}")
        if self.utilization_bucket <= 0:
            raise ReproError("utilization_bucket must be positive")
        if self.categories is not None:
            unknown = set(self.categories) - ALL_CATEGORIES
            if unknown:
                raise ReproError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"valid: {sorted(ALL_CATEGORIES)}"
                )
        return self


class Tracer:
    """One run's trace: spans, instants, counter samples, side stats.

    Events are stored as small tuples and rendered to Chrome trace-event
    dicts only at export time, keeping the recording path cheap.
    """

    __slots__ = (
        "cfg",
        "_cats",
        "events",
        "dropped",
        "stats",
        "_clock",
        "_hw",
    )

    def __init__(self, cfg: TraceConfig | None = None):
        self.cfg = (cfg or TraceConfig()).validate()
        self._cats = (
            ALL_CATEGORIES if self.cfg.categories is None else frozenset(self.cfg.categories)
        )
        #: Recorded events: (ph, cat, pid, tid, t0, dur_or_None, name, args).
        self.events: list[tuple] = []
        self.dropped = 0
        #: Utilization timelines + latency histograms (side channel).
        self.stats = StatsRegistry(bucket=self.cfg.utilization_bucket)
        self._clock: Callable[[], float] | None = None
        #: High-water marks: name -> max value seen.
        self._hw: dict[str, float] = {}

    # -- clock ---------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Give time-less components (scheduler, fault model) a way to
        stamp instants with the current simulation time."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # -- recording -----------------------------------------------------------

    def wants(self, cat: str) -> bool:
        return cat in self._cats

    def _push(self, event: tuple) -> None:
        if len(self.events) >= self.cfg.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def span(
        self,
        cat: str,
        pid: int,
        tid: int,
        name: str,
        t0: float,
        t1: float,
        args: dict | None = None,
    ) -> None:
        """Record a complete span [t0, t1] on track (pid, tid)."""
        if cat not in self._cats:
            return
        self._push(("X", cat, pid, tid, t0, max(0.0, t1 - t0), name, args))

    def instant(
        self,
        cat: str,
        pid: int,
        tid: int,
        name: str,
        t: float | None = None,
        args: dict | None = None,
    ) -> None:
        """Record a zero-duration marker (``t=None`` uses the bound clock)."""
        if cat not in self._cats:
            return
        self._push(("i", cat, pid, tid, self.now() if t is None else t, None, name, args))

    def count(self, pid: int, name: str, t: float, values: dict[str, float]) -> None:
        """Record a counter-track sample (stacked area in Perfetto)."""
        self._push(("C", CAT_RUN, pid, 0, t, None, name, values))

    # -- side statistics -----------------------------------------------------

    def busy(self, resource: str, t0: float, t1: float) -> None:
        """Attribute busy-time to a utilization timeline (``util.*``)."""
        if t1 > t0:
            self.stats.timeseries(f"util.{resource}").add_spread(t0, t1, t1 - t0)
        elif t1 == t0:
            return
        else:  # pragma: no cover - caller bug
            raise ReproError(f"busy interval ends before start: {t0} > {t1}")

    def latency(self, which: str, value: float) -> None:
        """Feed a latency sample into the ``lat.*`` histogram."""
        self.stats.histogram(f"lat.{which}").add(value)

    def highwater(self, name: str, value: float) -> None:
        """Track the maximum of an occupancy-style quantity."""
        if value > self._hw.get(name, float("-inf")):
            self._hw[name] = float(value)

    @property
    def highwaters(self) -> dict[str, float]:
        return dict(self._hw)

    # -- derived views -------------------------------------------------------

    def utilization_timelines(self) -> dict[str, tuple]:
        """name -> (bucket starts, busy fraction per bucket)."""
        out = {}
        for name, series in self.stats.series.items():
            if not name.startswith("util."):
                continue
            starts, sums = series.buckets()
            out[name.removeprefix("util.")] = (starts, sums / series.bucket)
        return out

    def latency_histograms(self) -> dict[str, object]:
        """name -> :class:`~repro.sim.stats.Histogram` of latencies."""
        return {
            name.removeprefix("lat."): h
            for name, h in self.stats.histograms.items()
            if name.startswith("lat.")
        }

    def span_counts(self) -> dict[str, int]:
        """Recorded events per category (quick trace sanity check)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev[1]] = out.get(ev[1], 0) + 1
        return out

    # -- export --------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Render the Chrome trace-event JSON object (Perfetto-ready)."""
        trace_events: list[dict] = []
        pids_seen: set[int] = set()
        tids_seen: set[tuple[int, int]] = set()
        for ph, cat, pid, tid, t, dur, name, args in self.events:
            ev: dict = {
                "ph": ph,
                "cat": cat,
                "pid": pid,
                "tid": tid,
                "ts": t * _US,
                "name": name,
            }
            if ph == "X":
                ev["dur"] = dur * _US
            elif ph == "i":
                ev["s"] = "t"  # thread-scoped instant
            if args:
                ev["args"] = args
            trace_events.append(ev)
            pids_seen.add(pid)
            tids_seen.add((pid, tid))
        meta: list[dict] = []
        for pid in sorted(pids_seen):
            meta.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")},
                }
            )
            meta.append(
                {"ph": "M", "pid": pid, "tid": 0, "name": "process_sort_index",
                 "args": {"sort_index": pid}}
            )
        for pid, tid in sorted(tids_seen):
            meta.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": _thread_name(pid, tid)},
                }
            )
        return {
            "traceEvents": meta + trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "recorded_events": len(self.events),
                "dropped_events": self.dropped,
                "clock": "simulated (1 us trace time = 1 us simulated)",
            },
        }

    def export_chrome(self, path: str) -> int:
        """Write the trace JSON to ``path``; returns event count."""
        obj = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as f:
            json.dump(obj, f, separators=(",", ":"))
        return len(obj["traceEvents"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(events={len(self.events)}, dropped={self.dropped}, "
            f"cats={sorted(self._cats)})"
        )


def _thread_name(pid: int, tid: int) -> str:
    if pid == PID_BOARD:
        return {0: "pipeline", 1: "scheduler"}.get(tid, f"tid {tid}")
    if pid == PID_CHANNEL_ACCEL:
        return f"channel accel {tid}"
    if pid == PID_CHIP_ACCEL:
        return f"chip accel {tid}"
    if pid == PID_BUS:
        return f"channel {tid} bus"
    if pid == PID_FLASH:
        return f"chip {tid}"
    return f"tid {tid}"


# -- validation (CI smoke + `cli validate`) ---------------------------------

_VALID_PHASES = {"X", "i", "I", "M", "C", "B", "E", "b", "e", "n", "s", "t", "f"}


def validate_trace(obj) -> list[str]:
    """Structural check against the Chrome trace-event format.

    Returns a list of problems (empty = valid).  Checks the containing
    object shape and, per event, the phase, required fields, and numeric
    non-negative timestamps — the subset of the spec that matters for
    Perfetto to load the file.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if ph == "M":
            if "name" not in ev:
                problems.append(f"{where}: metadata event without name")
            continue
        for key in ("pid", "tid", "ts", "name"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number, got {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: complete event needs non-negative dur, got {dur!r}"
                )
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    return problems
