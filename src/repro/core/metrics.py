"""FlashWalker run metrics (feeds Figs. 5, 6, 8).

Byte traffic is recorded twice: whole-run totals (Fig. 6 traffic and
bandwidth comparisons) and time-bucketed series (Fig. 8 timelines).
``flash_read`` counts bytes sensed from planes, ``flash_write`` bytes
programmed, ``channel`` bytes crossing ONFI buses; ``progress`` counts
completed walks over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.stats import StatsRegistry

__all__ = ["RunMetrics", "RunResult"]


class RunMetrics:
    """Live accumulator used by the engine during a run."""

    def __init__(self, bucket: float = 50e-6):
        self.stats = StatsRegistry(bucket=bucket)
        #: Optional :class:`~repro.obs.MetricsRegistry`; when the engine
        #: runs with telemetry enabled the traffic helpers mirror into
        #: labeled series.  None (the default) keeps every hot path at a
        #: single is-None check, same discipline as the tracer.
        self.telemetry = None
        # traffic series
        self.flash_read = self.stats.timeseries("flash_read_bytes")
        self.flash_write = self.stats.timeseries("flash_write_bytes")
        self.channel = self.stats.timeseries("channel_bytes")
        self.dram = self.stats.timeseries("dram_bytes")
        self.progress = self.stats.timeseries("walks_completed")
        # scalar counters
        self.hops = self.stats.counter("hops")
        self.queries = self.stats.counter("walk_queries")
        self.query_steps = self.stats.counter("query_search_steps")
        self.cache_hits = self.stats.counter("query_cache_hits")
        self.cache_misses = self.stats.counter("query_cache_misses")
        self.roving_walks = self.stats.counter("roving_walks")
        self.foreigner_walks = self.stats.counter("foreigner_walks")
        self.spilled_walks = self.stats.counter("spilled_walks")
        self.subgraph_loads = self.stats.counter("subgraph_loads")
        self.hot_hits_channel = self.stats.counter("hot_subgraph_hits_channel")
        self.hot_hits_board = self.stats.counter("hot_subgraph_hits_board")
        self.pre_walks = self.stats.counter("pre_walks")
        self.partition_switches = self.stats.counter("partition_switches")
        self.chip_busy = self.stats.counter("chip_busy_time")
        self.channel_busy = self.stats.counter("channel_accel_busy_time")
        self.board_busy = self.stats.counter("board_accel_busy_time")
        self.stall_time = self.stats.counter("chip_stall_time")
        # resilience counters (always present; nonzero only with faults)
        self.chips_failed = self.stats.counter("chips_failed")
        self.walks_rerouted = self.stats.counter("walks_rerouted")
        self.degraded_loads = self.stats.counter("degraded_loads")
        self.checkpoints = self.stats.counter("checkpoints_taken")

    # -- traffic helpers -------------------------------------------------------

    def record_flash_read(self, t: float, nbytes: int, t_end: float | None = None) -> None:
        if t_end is not None and t_end > t:
            self.flash_read.add_spread(t, t_end, nbytes)
        else:
            self.flash_read.add(t, nbytes)
        mx = self.telemetry
        if mx is not None:
            mx.counter("engine_flash_read_bytes").inc(nbytes, t)

    def record_flash_write(self, t: float, nbytes: int, t_end: float | None = None) -> None:
        if t_end is not None and t_end > t:
            self.flash_write.add_spread(t, t_end, nbytes)
        else:
            self.flash_write.add(t, nbytes)
        mx = self.telemetry
        if mx is not None:
            mx.counter("engine_flash_write_bytes").inc(nbytes, t)

    def record_channel(self, t: float, nbytes: int, t_end: float | None = None) -> None:
        """Attribute channel-bus bytes over the transfer's actual span so
        bandwidth timelines never exceed the physical bus rate."""
        if t_end is not None and t_end > t:
            self.channel.add_spread(t, t_end, nbytes)
        else:
            self.channel.add(t, nbytes)
        mx = self.telemetry
        if mx is not None:
            mx.counter("engine_channel_bytes").inc(nbytes, t)

    def record_dram(self, t: float, nbytes: int, t_end: float | None = None) -> None:
        if t_end is not None and t_end > t:
            self.dram.add_spread(t, t_end, nbytes)
        else:
            self.dram.add(t, nbytes)
        mx = self.telemetry
        if mx is not None:
            mx.counter("engine_dram_bytes").inc(nbytes, t)

    def record_completed(self, t: float, count: int) -> None:
        if count:
            self.progress.add(t, count)
            mx = self.telemetry
            if mx is not None:
                mx.counter("engine_walks_completed").inc(count, t)

    def finalize(self, elapsed: float, total_walks: int) -> "RunResult":
        return RunResult(
            elapsed=elapsed,
            total_walks=total_walks,
            flash_read_bytes=int(self.flash_read.total),
            flash_write_bytes=int(self.flash_write.total),
            channel_bytes=int(self.channel.total),
            dram_bytes=int(self.dram.total),
            hops=int(self.hops.total),
            counters=self.stats.totals(),
            metrics=self,
        )


@dataclass
class RunResult:
    """Immutable summary of one FlashWalker (or baseline) run."""

    elapsed: float
    total_walks: int
    flash_read_bytes: int
    flash_write_bytes: int
    channel_bytes: int
    dram_bytes: int
    hops: int
    counters: dict[str, float] = field(default_factory=dict)
    #: Out of the repr, which would otherwise name its memory address.
    metrics: RunMetrics | None = field(default=None, repr=False)
    #: Completed walks' (src, cur=final, hop) records; populated only
    #: when the engine ran with ``record_finals=True``.
    finals: object | None = None
    #: Root seed of the run (stamped by the engine; None for baselines
    #: that do not report one).
    seed: int | None = None
    #: Short hash naming the configuration that produced this result.
    config_fingerprint: str | None = None
    #: The run's :class:`~repro.obs.Tracer` when tracing was enabled.
    trace: object | None = None
    #: SLO section attached by the service layer (:mod:`repro.service`):
    #: query latency percentiles, shed/deadline-miss rates, queue and
    #: breaker counters.  None for plain batch runs, in which case the
    #: report carries no "service" section at all.
    service: dict | None = None
    #: Durability section attached by the engine when
    #: ``DurabilityConfig.enabled``: checkpoint/journal/integrity stats,
    #: plus a ``recovery`` subsection (RPO/RTO of the crash) when the
    #: run came out of :meth:`FlashWalker.recover`.  None for default
    #: runs, in which case the report carries no "durability" section.
    durability: dict | None = None
    #: Telemetry section attached by the engine when it was built with a
    #: :class:`~repro.obs.MetricsConfig`: deterministic metrics series
    #: on the sample grid plus alert-rule firings.  None for default
    #: runs, in which case the report carries no "telemetry" section.
    telemetry: dict | None = None
    #: FTL section attached by the engine when ``FTLConfig.enabled``:
    #: CMT hit/miss stats, translation traffic, write amplification and
    #: wear counters.  None for default runs, in which case the report
    #: carries no "ftl" section.
    ftl: dict | None = None

    @property
    def flash_read_bandwidth(self) -> float:
        """Mean achieved flash read bandwidth (bytes/sec)."""
        return self.flash_read_bytes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def walks_per_sec(self) -> float:
        return self.total_walks / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def hops_per_sec(self) -> float:
        return self.hops / self.elapsed if self.elapsed > 0 else 0.0

    def bandwidth_series(self, rebins: int = 50) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Fig. 8 series, rebinned to ~``rebins`` buckets over the run.

        Returns name -> (bucket start times, bytes/sec).  Includes the
        walk progression as a cumulative fraction under ``progress``.
        """
        if self.metrics is None:
            raise ValueError("run was finalized without live metrics")
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # The rebin width must be a whole multiple of the raw bucket —
        # otherwise a bin would aggregate more raw time than its width
        # and the computed rate would exceed the physical bus rate — and
        # the mapping uses integer bucket indices so floating-point
        # division can never shift a bucket across a bin boundary.
        raw = self.metrics.flash_read.bucket
        width = max(self.elapsed / max(rebins, 1), raw, 1e-9)
        k = max(1, int(np.ceil(width / raw - 1e-9)))
        width = k * raw
        rebins = max(1, int(np.ceil(self.elapsed / width)) + 1)

        def rebin(series):
            starts, sums = series.buckets()
            if starts.size == 0:
                return np.zeros(rebins)
            raw_idx = np.rint(starts / raw).astype(np.int64)
            idx = np.minimum(raw_idx // k, rebins - 1)
            agg = np.zeros(rebins)
            np.add.at(agg, idx, sums)
            return agg

        for name, series in (
            ("flash_read", self.metrics.flash_read),
            ("flash_write", self.metrics.flash_write),
            ("channel", self.metrics.channel),
        ):
            out[name] = (np.arange(rebins) * width, rebin(series) / width)
        frac = np.cumsum(rebin(self.metrics.progress)) / max(self.total_walks, 1)
        out["progress"] = (np.arange(rebins) * width, frac)
        return out

    def utilization(self) -> dict[str, dict[str, float]]:
        """Per-component utilization summary.

        ``mean_busy`` is busy-seconds per elapsed second — the average
        number of concurrently busy units, so the (single) board
        accelerator stays in [0, 1] while chip/channel aggregates can
        exceed 1.  When the run was traced, the tracer's per-resource
        timelines (planes, buses, ...) contribute mean and peak levels
        too.
        """
        el = self.elapsed
        out: dict[str, dict[str, float]] = {}
        for key, counter in (
            ("board_accel", "board_accel_busy_time"),
            ("channel_accel", "channel_accel_busy_time"),
            ("chip_accel", "chip_busy_time"),
        ):
            busy = self.counters.get(counter, 0.0)
            out[key] = {"mean_busy": busy / el if el > 0 else 0.0}
        if self.trace is not None:
            for name, (_, level) in self.trace.utilization_timelines().items():
                entry = out.setdefault(name, {})
                total = self.trace.stats.series[f"util.{name}"].total
                entry["mean_busy"] = total / el if el > 0 else 0.0
                entry["peak_busy"] = float(level.max()) if level.size else 0.0
        return out

    def to_report(self, *, extra: dict | None = None) -> dict:
        """Versioned, JSON-round-trippable report of this run.

        See :mod:`repro.obs.report` for the schema; trace-derived
        sections appear only when the run was traced.
        """
        from ..obs.report import build_report

        return build_report(self, extra=extra)

    def summary(self) -> str:
        from ..common.units import fmt_bandwidth, fmt_bytes, fmt_time

        return (
            f"t={fmt_time(self.elapsed)} walks={self.total_walks} "
            f"hops={self.hops} read={fmt_bytes(self.flash_read_bytes)} "
            f"write={fmt_bytes(self.flash_write_bytes)} "
            f"chan={fmt_bytes(self.channel_bytes)} "
            f"readBW={fmt_bandwidth(self.flash_read_bandwidth)}"
        )
