"""Observability layer: span tracing, run reports, telemetry and alerts.

This package turns a simulation run from a bag of whole-run counters
into an inspectable artifact, in three pieces:

* :mod:`repro.obs.tracer` — an opt-in **span tracer**
  (:class:`TraceConfig` + :class:`Tracer`) that hardware models and the
  engine feed begin/end spans (page reads, bus transfers, accelerator
  busy periods, scheduler decisions, fault events).  Traces export as
  Chrome trace-event JSON, openable directly in ``ui.perfetto.dev``.
* :mod:`repro.obs.report` — a versioned, machine-readable **run
  report** (:func:`build_report`, surfaced as
  :meth:`repro.core.metrics.RunResult.to_report`), plus
  :func:`diff_reports` for comparing two runs and
  :func:`config_fingerprint` for identifying the configuration that
  produced them.
* :mod:`repro.obs.metrics` — an opt-in, deterministic **metrics
  registry** (:class:`MetricsConfig` + :class:`MetricsRegistry`):
  counters, gauges, and fixed-bucket histograms sampled on a simulated-
  time grid, exported as OpenMetrics text or the report's ``telemetry``
  section, with :mod:`repro.obs.alerts` rules (:class:`AlertRule` +
  :class:`AlertEngine`) evaluated over the same grid.

Tracing and metrics are strictly opt-in: with neither attached every
hot path sees a single ``is None`` check, and an observed run's
*simulated* timestamps are identical to an unobserved one — both only
observe.

The CLI entry point ``python -m repro.obs.cli`` exports traces and
metric series, dumps and diffs reports, prints alert firings, and
validates trace/report files (used by CI).
"""

from .alerts import (
    AlertEngine,
    AlertRule,
    default_cluster_rules,
    default_engine_rules,
    default_service_rules,
)
from .metrics import (
    METRICS_SCHEMA,
    MetricsConfig,
    MetricsRegistry,
)
from .report import (
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    build_report,
    config_fingerprint,
    diff_reports,
    validate_report,
)
from .tracer import (
    CAT_ACCEL,
    CAT_BUS,
    CAT_CHECKPOINT,
    CAT_FAULT,
    CAT_FLASH,
    CAT_RUN,
    CAT_SCHED,
    PID_BOARD,
    PID_BUS,
    PID_CHANNEL_ACCEL,
    PID_CHIP_ACCEL,
    PID_FAULTS,
    PID_FLASH,
    PID_RUN,
    TraceConfig,
    Tracer,
    validate_trace,
)

__all__ = [
    "CAT_ACCEL",
    "CAT_BUS",
    "CAT_CHECKPOINT",
    "CAT_FAULT",
    "CAT_FLASH",
    "CAT_RUN",
    "CAT_SCHED",
    "PID_BOARD",
    "PID_BUS",
    "PID_CHANNEL_ACCEL",
    "PID_CHIP_ACCEL",
    "PID_FAULTS",
    "PID_FLASH",
    "PID_RUN",
    "AlertEngine",
    "AlertRule",
    "METRICS_SCHEMA",
    "MetricsConfig",
    "MetricsRegistry",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "TraceConfig",
    "Tracer",
    "build_report",
    "config_fingerprint",
    "default_cluster_rules",
    "default_engine_rules",
    "default_service_rules",
    "diff_reports",
    "validate_report",
    "validate_trace",
]
