"""Shared hardware resources with FCFS queueing and utilization accounting.

Two building blocks used throughout the SSD and accelerator models:

* :class:`FcfsResource` — ``k`` identical servers with a FIFO queue.
  ``acquire_for(duration)`` returns the *completion time* of the request;
  utilization and queueing statistics are tracked as requests flow.
* :class:`BandwidthLink` — a serial link (channel bus, DRAM bus):
  transfers occupy the link back-to-back, so a transfer issued at ``t``
  completes at ``max(t, busy_until) + bytes / rate``.

These are *analytic* resources: they do not schedule events themselves.
Callers combine the returned completion times with
:meth:`repro.sim.engine.Simulator.at` to drive the event loop.  This keeps
the hot path (thousands of page reads) allocation-free.
"""

from __future__ import annotations

import heapq

from ..common.errors import SimulationError
from ..common.state import Stateful

__all__ = ["FcfsResource", "BandwidthLink"]


class FcfsResource(Stateful):
    """``k`` identical servers, FIFO order, non-preemptive.

    Requests are characterised only by (issue time, service duration); the
    resource returns when the request finishes.  Issue times must be
    non-decreasing per caller but may interleave across callers; the
    resource serializes on a min-heap of server free times.
    """

    __slots__ = ("name", "servers", "_free_at", "busy_time", "requests", "queued_time")
    # A copied heap is still a heap.
    STATE = ("_free_at", "busy_time", "requests", "queued_time")

    def __init__(self, name: str, servers: int = 1):
        if servers < 1:
            raise SimulationError(f"{name}: need >= 1 server, got {servers}")
        self.name = name
        self.servers = servers
        self._free_at = [0.0] * servers
        heapq.heapify(self._free_at)
        self.busy_time = 0.0
        self.requests = 0
        self.queued_time = 0.0

    def acquire_for(self, now: float, duration: float) -> float:
        """Occupy one server for ``duration`` starting no earlier than ``now``.

        Returns the completion time.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        earliest = heapq.heappop(self._free_at)
        start = earliest if earliest > now else now
        end = start + duration
        heapq.heappush(self._free_at, end)
        self.busy_time += duration
        self.queued_time += start - now
        self.requests += 1
        return end

    def next_free(self, now: float) -> float:
        """Earliest time a server is available (>= now)."""
        earliest = self._free_at[0]
        return earliest if earliest > now else now

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of servers busy over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.servers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FcfsResource({self.name!r}, servers={self.servers}, "
            f"requests={self.requests})"
        )


class BandwidthLink(Stateful):
    """A serial link with fixed byte rate and optional per-transfer latency.

    Models channel buses (ONFI) and the DRAM bus.  All byte counters
    are tracked for the Fig. 6/8 traffic metrics.
    """

    __slots__ = (
        "name",
        "bytes_per_sec",
        "latency",
        "_busy_until",
        "bytes_moved",
        "busy_time",
        "transfers",
    )
    STATE = ("_busy_until", "bytes_moved", "busy_time", "transfers")

    def __init__(self, name: str, bytes_per_sec: float, latency: float = 0.0):
        if bytes_per_sec <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        if latency < 0:
            raise SimulationError(f"{name}: negative latency")
        self.name = name
        self.bytes_per_sec = float(bytes_per_sec)
        self.latency = float(latency)
        self._busy_until = 0.0
        self.bytes_moved = 0
        self.busy_time = 0.0
        self.transfers = 0

    def transfer(self, now: float, nbytes: int | float) -> float:
        """Move ``nbytes`` starting no earlier than ``now``; returns end time."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size {nbytes}")
        start = self._busy_until if self._busy_until > now else now
        duration = self.latency + float(nbytes) / self.bytes_per_sec
        end = start + duration
        self._busy_until = end
        self.bytes_moved += int(nbytes)
        self.busy_time += duration
        self.transfers += 1
        return end

    def stall(self, now: float, duration: float) -> float:
        """Hold the link busy for ``duration`` extra seconds from ``now``.

        Models degradation that stretches occupancy without moving bytes
        (a gray-failure slow window, a re-equalization pause): the stall
        serializes behind any in-flight transfer and pushes the link's
        next-free time out, charging ``busy_time`` so utilization
        timelines see the degradation.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative stall {duration}")
        start = self._busy_until if self._busy_until > now else now
        end = start + duration
        self._busy_until = end
        self.busy_time += duration
        return end

    def next_free(self, now: float) -> float:
        return self._busy_until if self._busy_until > now else now

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return self.busy_time / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BandwidthLink({self.name!r}, {self.bytes_per_sec:.3g} B/s, "
            f"moved={self.bytes_moved})"
        )
