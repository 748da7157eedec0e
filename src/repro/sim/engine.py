"""Discrete-event simulation kernel.

A tiny, fast event engine: callbacks scheduled at absolute or relative
times, executed in (time, priority, sequence) order.  Each heap entry
is one ``(time, priority, seq, fn, args)`` tuple, so ordering is a
C-level tuple compare (``seq`` is unique, so ``fn`` and ``args`` are
never compared) and firing an entry is ``fn(*args)``: callers pass a
bound method and its arguments rather than building a closure per
event.  :meth:`Simulator.at` returns the entry itself, the handle that
:meth:`Simulator.cancel` takes; a cancelled entry stays in the heap and
is dropped, unfired, when it reaches the head.

All simulator components (flash channels, accelerators, schedulers)
share one :class:`Simulator` and advance its clock only through events,
so causality is guaranteed by construction.

The engine deliberately has no notion of processes or coroutines: the
FlashWalker models are state machines whose transitions are event
callbacks, which profiles far better in CPython than generator-based
processes (see the hpc-parallel guide: measure, keep the hot path flat).
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable

from ..common.errors import SimulationError

__all__ = ["Simulator"]

#: One scheduled callback: ``(time, priority, seq, fn, args)``.
Entry = tuple


class Simulator:
    """Event queue + simulation clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.at(1.0, fired.append, "a")
    >>> _ = sim.after(0.5, lambda: fired.append(sim.now))
    >>> dropped = sim.at(0.7, fired.append, "never")
    >>> sim.cancel(dropped)
    >>> sim.run()
    >>> fired
    [0.5, 'a']
    """

    def __init__(self):
        self.now: float = 0.0
        #: Heap of (time, priority, seq, fn, args) entries.
        self._queue: list[Entry] = []
        #: seqs of cancelled entries still in the heap.
        self._cancelled: set[int] = set()
        #: Latest time of an entry dropped unfired; with ``now`` (the
        #: latest fired time) it bounds every entry that left the heap.
        self._dropped_until = 0.0
        self._seq = itertools.count()
        self._events_executed = 0
        self._running = False

    # -- scheduling ---------------------------------------------------------

    def at(self, time: float, fn: Callable, *args, priority: int = 0) -> Entry:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``;
        returns the heap entry (the handle :meth:`cancel` takes)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: t={time} < now={self.now}"
            )
        entry = (time, priority, next(self._seq), fn, args)
        heappush(self._queue, entry)
        return entry

    def after(self, delay: float, fn: Callable, *args, priority: int = 0) -> Entry:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self.now + delay, fn, *args, priority=priority)

    def cancel(self, entry: Entry) -> None:
        """Keep a pending entry from firing.  An entry that already ran
        (or was already dropped) is left alone, so the cancelled set
        only ever holds entries still in the heap.  An entry later than
        every entry that left the heap is still in it; only one at or
        before that mark needs the heap scan.  ``entry`` must be one this
        simulator's :meth:`at` returned."""
        time = entry[0]
        if (time > self.now and time > self._dropped_until) or entry in self._queue:
            self._cancelled.add(entry[2])

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if queue empty."""
        q = self._queue
        cancelled = self._cancelled
        while q:
            time, _, seq, fn, args = heappop(q)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                self._dropped_until = max(self._dropped_until, time)
                continue
            self.now = time
            self._events_executed += 1
            fn(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at that time (remaining events stay
        queued) and may not lie behind it; ``max_events`` bounds work as
        a runaway guard.  Every event runs through :meth:`step`, so a
        wrapper on ``step`` sees each one (the e2e benchmark counts
        ``sim.events`` that way).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until the past: until={until} < now={self.now}"
            )
        self._running = True
        q = self._queue
        cancelled = self._cancelled
        step = self.step
        limit = math.inf if max_events is None else max_events
        executed = 0
        try:
            while q:
                head = q[0]
                if cancelled and head[2] in cancelled:
                    heappop(q)
                    cancelled.discard(head[2])
                    self._dropped_until = max(self._dropped_until, head[0])
                    continue
                if until is not None and head[0] > until:
                    break
                if executed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                step()
                executed += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # -- introspection --------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return len(self._queue) - len(self._cancelled)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.9f}, pending={self.pending_events}, "
            f"executed={self._events_executed})"
        )
