"""Simulation statistics: counters, time-bucketed series, histograms.

The Fig. 8 experiment needs byte counters bucketed by simulation time
(bandwidth timelines) and a walk-completion progression; Fig. 6 needs
whole-run byte totals.  :class:`TimeSeries` accumulates both from the same
``add(t, value)`` calls.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from ..common.errors import SimulationError
from ..common.state import Stateful

__all__ = ["Counter", "TimeSeries", "Histogram", "StatsRegistry"]


class Counter(Stateful):
    """A named monotonic accumulator."""

    __slots__ = ("name", "total", "events")
    STATE = ("total", "events")

    def __init__(self, name: str):
        self.name = name
        self.total = 0.0
        self.events = 0

    def add(self, value: float = 1.0) -> None:
        self.total += value
        self.events += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, total={self.total}, events={self.events})"


class TimeSeries(Stateful):
    """Values attributed to simulation times, aggregated into buckets.

    ``bucket`` is the bucket width in seconds.  ``rates(elapsed)`` returns
    (bucket_starts, per-second rates) suitable for the Fig. 8 timelines.
    """

    __slots__ = ("name", "bucket", "_sums", "total", "events", "last_time")
    STATE = __slots__[1:]  # all but the name

    def __init__(self, name: str, bucket: float):
        if bucket <= 0:
            raise SimulationError(f"{name}: bucket width must be positive")
        self.name = name
        self.bucket = float(bucket)
        self._sums: dict[int, float] = {}
        self.total = 0.0
        self.events = 0
        self.last_time = 0.0

    def add(self, t: float, value: float) -> None:
        if t < 0:
            raise SimulationError(f"{self.name}: negative time {t}")
        idx = int(t / self.bucket)
        self._sums[idx] = self._sums.get(idx, 0.0) + value
        self.total += value
        self.events += 1
        if t > self.last_time:
            self.last_time = t

    def add_spread(self, t0: float, t1: float, value: float) -> None:
        """Attribute ``value`` uniformly over the interval [t0, t1]."""
        if t1 < t0:
            raise SimulationError(f"{self.name}: interval ends before start")
        if t1 == t0:
            self.add(t0, value)
            return
        i0 = int(t0 / self.bucket)
        i1 = int(t1 / self.bucket)
        if i0 == i1:
            self.add(t0, value)
            return
        span = t1 - t0
        for idx in range(i0, i1 + 1):
            lo = max(t0, idx * self.bucket)
            hi = min(t1, (idx + 1) * self.bucket)
            if hi > lo:
                self._sums[idx] = self._sums.get(idx, 0.0) + value * (hi - lo) / span
        self.total += value
        self.events += 1
        if t1 > self.last_time:
            self.last_time = t1

    def buckets(self) -> tuple[np.ndarray, np.ndarray]:
        """(bucket start times, per-bucket sums), dense from 0 to last bucket."""
        if not self._sums:
            return np.zeros(0), np.zeros(0)
        n = max(self._sums) + 1
        sums = np.zeros(n)
        for idx, v in self._sums.items():
            sums[idx] = v
        starts = np.arange(n) * self.bucket
        return starts, sums

    def rates(self) -> tuple[np.ndarray, np.ndarray]:
        """(bucket start times, per-second rates)."""
        starts, sums = self.buckets()
        return starts, sums / self.bucket

    def cumulative(self) -> tuple[np.ndarray, np.ndarray]:
        """(bucket end times, running totals) — for progression curves."""
        starts, sums = self.buckets()
        return starts + self.bucket, np.cumsum(sums)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, total={self.total}, buckets={len(self._sums)})"


class Histogram:
    """Log-spaced histogram for latency/length distributions."""

    __slots__ = ("name", "edges", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, lo: float = 1e-9, hi: float = 1e3, bins: int = 60):
        if not (0 < lo < hi):
            raise SimulationError(f"{name}: need 0 < lo < hi")
        self.name = name
        self.edges = np.geomspace(lo, hi, bins + 1)
        self.counts = np.zeros(bins + 2, dtype=np.int64)  # +under/overflow
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float, count: int = 1) -> None:
        idx = bisect.bisect_right(self.edges, value)
        self.counts[idx] += count
        self.total += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile (bucket upper edge), q in [0, 100]."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q out of range: {q}")
        if self.total == 0:
            return 0.0
        target = self.total * q / 100.0
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                if i == 0:
                    return float(self.edges[0])
                if i >= len(self.edges):
                    return float(self.max)
                return float(self.edges[i])
        return float(self.max)  # pragma: no cover - unreachable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.total}, mean={self.mean:.3g})"


class StatsRegistry(Stateful):
    """Namespace of named counters/series/histograms for one simulation run."""

    def __init__(self, bucket: float = 0.01):
        self.bucket = bucket
        self.counters: dict[str, Counter] = {}
        self.series: dict[str, TimeSeries] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = Counter(name)
            self.counters[name] = c
        return c

    def timeseries(self, name: str, bucket: float | None = None) -> TimeSeries:
        s = self.series.get(name)
        if s is None:
            s = TimeSeries(name, bucket if bucket is not None else self.bucket)
            self.series[name] = s
        return s

    def histogram(self, name: str, **kwargs) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = Histogram(name, **kwargs)
            self.histograms[name] = h
        return h

    def totals(self) -> dict[str, float]:
        """Flat {name: total} view of all counters and series.

        Counters additionally contribute ``"<name>.events"`` entries:
        the *number of add() calls* behind each total.  Totals alone
        cannot distinguish one 4 MB flush from a thousand 4 KB ones, and
        that event count used to be dropped at finalize.
        """
        out = {name: c.total for name, c in self.counters.items()}
        out.update(
            {f"{name}.events": float(c.events) for name, c in self.counters.items()}
        )
        out.update({name: s.total for name, s in self.series.items()})
        return out

    def state(self) -> dict:
        """Checkpoint state of every counter and series, by name
        (histograms are report-only and not carried)."""
        return {
            "counters": {n: c.state() for n, c in self.counters.items()},
            "series": {n: s.state() for n, s in self.series.items()},
        }

    def restore(self, state: dict) -> None:
        for name, s in state["counters"].items():
            self.counter(name).restore(s)
        for name, s in state["series"].items():
            self.timeseries(name, s["bucket"]).restore(s)
