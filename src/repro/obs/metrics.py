"""Deterministic simulated-clock metrics: counters, gauges, histograms.

The registry is the telemetry counterpart of the tracer (DESIGN.md §7)
and follows the same opt-in discipline: it is a *passive observer*.
Instruments stamp every observation with the simulation clock and fold
it onto an absolute sample grid (cell ``floor(t / sample_interval)``,
the same absolute-grid convention the journal's group commit uses), so
enabling metrics schedules **no** simulator events, draws **no** RNG,
and cannot change simulated timestamps.  Disabled, every hot path sees
a single ``is None`` check.

Sampling semantics: sample ``i`` covers ``[i·Δ, (i+1)·Δ)`` and is read
at its right boundary — counters report the cumulative total through
the cell, gauges the last value set at or before it, histograms the
cumulative observation count.  When a run outgrows
``max_samples`` the grid coarsens by a deterministic integer factor,
so same-seed runs always produce byte-identical series regardless of
execution mode (the serial/process-pool cluster identity gate covers
this).

Exports: OpenMetrics text (:meth:`MetricsRegistry.to_openmetrics`) and
JSON (:meth:`MetricsRegistry.to_json`); the run report embeds
:meth:`MetricsRegistry.section` as the ``telemetry`` section,
including any alert-rule firings (:mod:`repro.obs.alerts`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from ..common.errors import ConfigError

__all__ = [
    "METRICS_SCHEMA",
    "MetricsConfig",
    "MetricsRegistry",
    "MetricCounter",
    "MetricGauge",
    "MetricHistogram",
]

METRICS_SCHEMA = "repro.obs.metrics"
METRICS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MetricsConfig:
    """Opt-in telemetry knobs (mirrors :class:`~repro.obs.TraceConfig`).

    Deliberately *not* part of ``FlashWalkerConfig``: enabling metrics
    must not perturb the ``config_fingerprint``, exactly like tracing.
    """

    #: Width of one sample cell in simulated seconds.  The default
    #: matches the engine's RunMetrics bucket (50 µs) divided down so
    #: service/cluster epochs resolve to multiple samples.
    sample_interval: float = 20e-6
    #: Series longer than this coarsen by an integer factor (grid cells
    #: merge ``k`` at a time) so reports stay bounded.
    max_samples: int = 2048

    def validate(self) -> "MetricsConfig":
        if self.sample_interval <= 0:
            raise ConfigError(
                f"sample_interval must be > 0, got {self.sample_interval}"
            )
        if self.max_samples < 1:
            raise ConfigError(
                f"max_samples must be >= 1, got {self.max_samples}"
            )
        return self


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class _Instrument:
    """Shared cell bookkeeping for all instrument kinds."""

    kind = "?"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: tuple):
        self._reg = registry
        self.name = name
        self.labels = labels

    def _cell(self, t: float | None) -> int:
        if t is None:
            t = self._reg._clock()
        return int(math.floor(t / self._reg.cfg.sample_interval))

    def key(self) -> str:
        return self.name + _label_suffix(self.labels)


class MetricCounter(_Instrument):
    """Monotonic counter; series = cumulative total per sample."""

    kind = "counter"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.total = 0.0
        self._cells: dict[int, float] = {}

    def inc(self, value: float = 1.0, t: float | None = None) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name}: negative increment {value}")
        self.total += value
        c = self._cell(t)
        self._cells[c] = self._cells.get(c, 0.0) + value

    def series(self, n: int, factor: int) -> list[float]:
        out = [0.0] * n
        for cell, v in self._cells.items():
            out[min(cell // factor, n - 1)] += v
        run = 0.0
        for i in range(n):
            run += out[i]
            out[i] = run
        return out


class MetricGauge(_Instrument):
    """Last-value gauge; series = step function sampled per cell."""

    kind = "gauge"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.last = 0.0
        self.max = 0.0
        #: cell -> value of the latest ``set`` that landed in it.
        self._cells: dict[int, float] = {}

    def set(self, value: float, t: float | None = None) -> None:
        value = float(value)
        self.last = value
        if value > self.max:
            self.max = value
        self._cells[self._cell(t)] = value

    def series(self, n: int, factor: int) -> list[float]:
        out = [0.0] * n
        level = 0.0
        changes = sorted(self._cells.items())
        j = 0
        for i in range(n):
            # Consume every change whose (coarsened) cell is <= i.
            while j < len(changes) and changes[j][0] // factor <= i:
                level = changes[j][1]
                j += 1
            out[i] = level
        return out


class MetricHistogram(_Instrument):
    """Fixed-bucket histogram (OpenMetrics-style ``le`` upper bounds).

    Bucket counts are whole-run; the time series is the cumulative
    observation count, so rate rules still apply to it.
    """

    kind = "histogram"

    def __init__(self, registry, name, labels, buckets):
        super().__init__(registry, name, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError(
                f"histogram {name}: buckets must be strictly increasing, "
                f"got {buckets!r}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self._cells: dict[int, int] = {}

    def observe(self, value: float, t: float | None = None) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        c = self._cell(t)
        self._cells[c] = self._cells.get(c, 0) + 1

    def series(self, n: int, factor: int) -> list[float]:
        out = [0.0] * n
        for cell, v in self._cells.items():
            out[min(cell // factor, n - 1)] += v
        run = 0.0
        for i in range(n):
            run += out[i]
            out[i] = run
        return out


class MetricsRegistry:
    """Named, labeled instruments over one deterministic sample grid."""

    def __init__(self, config: MetricsConfig | None = None):
        self.cfg = (config or MetricsConfig()).validate()
        self._metrics: dict[tuple, _Instrument] = {}
        self._clock = lambda: 0.0
        #: Alert rules evaluated at section build (:mod:`repro.obs.alerts`).
        self.rules: list = []

    # -------------------------------------------------------------- recording

    def bind_clock(self, clock) -> None:
        """Default timestamp source for observations without explicit t."""
        self._clock = clock

    def _get(self, cls, name: str, labels: dict, *args):
        lk = _label_key(labels)
        key = (name, lk)
        inst = self._metrics.get(key)
        if inst is None:
            inst = cls(self, name, lk, *args)
            self._metrics[key] = inst
        elif not isinstance(inst, cls):
            raise ConfigError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, **labels) -> MetricCounter:
        return self._get(MetricCounter, name, labels)

    def gauge(self, name: str, **labels) -> MetricGauge:
        return self._get(MetricGauge, name, labels)

    def histogram(self, name: str, buckets, **labels) -> MetricHistogram:
        return self._get(MetricHistogram, name, labels, buckets)

    def add_rules(self, rules) -> None:
        """Register alert rules; re-adding a rule name is a no-op."""
        have = {r.name for r in self.rules}
        self.rules.extend(r for r in rules if r.name not in have)

    # -------------------------------------------------------------- sampling

    def _span(self, t_end: float | None) -> float:
        if t_end is None:
            t_end = self._clock()
        # Every recorded cell must fall inside the grid even if the
        # caller's end time undershoots (spread recordings can land
        # observations past "now").
        last_cell = max(
            (max(m._cells) for m in self._metrics.values() if m._cells),
            default=0,
        )
        return max(float(t_end), (last_cell + 1) * self.cfg.sample_interval)

    def grid(self, t_end: float | None = None) -> tuple[int, int, float]:
        """Sample-grid shape ``(n_samples, coarsen_factor, eff_interval)``."""
        span = self._span(t_end)
        raw = int(math.floor(span / self.cfg.sample_interval)) + 1
        factor = max(1, math.ceil(raw / self.cfg.max_samples))
        n = math.ceil(raw / factor)
        return n, factor, factor * self.cfg.sample_interval

    def instruments(self) -> list[_Instrument]:
        """All instruments in deterministic (name, labels) order."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    # -------------------------------------------------------------- exporting

    def section(self, t_end: float | None = None) -> dict:
        """The run report's ``telemetry`` section."""
        n, factor, interval = self.grid(t_end)
        series = []
        for inst in self.instruments():
            entry: dict = {
                "name": inst.name,
                "labels": dict(inst.labels),
                "kind": inst.kind,
                "values": inst.series(n, factor),
            }
            if inst.kind == "counter":
                entry["total"] = inst.total
            elif inst.kind == "gauge":
                entry["last"] = inst.last
                entry["max"] = inst.max
                vals = entry["values"]
                entry["mean"] = sum(vals) / len(vals) if vals else 0.0
            else:
                entry["buckets"] = list(inst.buckets)
                entry["counts"] = list(inst.counts)
                entry["sum"] = inst.sum
                entry["count"] = inst.count
            series.append(entry)
        out = {
            "schema": METRICS_SCHEMA,
            "schema_version": METRICS_SCHEMA_VERSION,
            "sample_interval": interval,
            "samples": n,
            "series": series,
        }
        if self.rules:
            from .alerts import AlertEngine

            engine = AlertEngine(self.rules)
            out["alerts"] = {
                "rules": [r.name for r in engine.rules],
                "firings": engine.evaluate(self, t_end=t_end),
            }
        return out

    def to_json(self, t_end: float | None = None) -> dict:
        return self.section(t_end)

    def to_openmetrics(self, t_end: float | None = None) -> str:
        """OpenMetrics text exposition of current totals/levels."""
        n, factor, interval = self.grid(t_end)
        lines: list[str] = []
        seen_types: set[str] = set()
        for inst in self.instruments():
            if inst.name not in seen_types:
                seen_types.add(inst.name)
                lines.append(f"# TYPE {inst.name} {inst.kind}")
            suffix = _label_suffix(inst.labels)
            if inst.kind == "counter":
                lines.append(f"{inst.name}_total{suffix} {inst.total:g}")
            elif inst.kind == "gauge":
                lines.append(f"{inst.name}{suffix} {inst.last:g}")
            else:
                run = 0
                for le, c in zip(inst.buckets, inst.counts):
                    run += c
                    lab = dict(inst.labels)
                    lab["le"] = f"{le:g}"
                    lines.append(
                        f"{inst.name}_bucket{_label_suffix(_label_key(lab))} {run}"
                    )
                lab = dict(inst.labels)
                lab["le"] = "+Inf"
                lines.append(
                    f"{inst.name}_bucket{_label_suffix(_label_key(lab))} "
                    f"{inst.count}"
                )
                lines.append(f"{inst.name}_sum{suffix} {inst.sum:g}")
                lines.append(f"{inst.name}_count{suffix} {inst.count}")
        lines.append(
            f"# repro.obs.metrics samples={n} interval={interval:g}s"
        )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"
