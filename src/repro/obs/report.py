"""Structured, versioned run reports.

A report is a plain-JSON summary of one run: schema version, config
fingerprint, seed, headline rates, all counters (totals *and* event
counts), per-component utilization, and latency percentiles when the
run was traced.  Reports are what CI archives, what ``cli diff``
compares across PRs, and what downstream tooling parses instead of
scraping ``RunResult.summary()`` strings.

There is one schema version, ``REPORT_SCHEMA_VERSION``, and one
presence rule: a section is present iff the object that produces it was
built (``service``, ``durability``, ``ftl``, ``telemetry`` and the
trace-derived sections are absent when their layer is off).  No key,
value or version depends on which build produced the report; any change
to the key set bumps the version, and :func:`validate_report` accepts
only the current one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "config_fingerprint",
    "diff_reports",
    "validate_report",
]

REPORT_SCHEMA = "repro.obs.run-report"
REPORT_SCHEMA_VERSION = 6

#: Percentiles quoted for every latency histogram.
_PERCENTILES = (50.0, 90.0, 99.0)


def _jsonable(value):
    """Coerce numpy scalars/arrays and other oddballs to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return _jsonable(value.item())
        except (AttributeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def config_fingerprint(config) -> str:
    """Stable short hash of a configuration.

    Accepts a dataclass (e.g. :class:`~repro.common.config.FlashWalkerConfig`)
    or any JSON-serializable mapping.  Two configs fingerprint equal iff
    their canonical JSON forms match, so a report unambiguously names
    the configuration that produced it without embedding all of it.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        obj = dataclasses.asdict(config)
    else:
        obj = config
    canonical = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _percentile_block(hist) -> dict:
    block = {
        "n": int(hist.total),
        "mean": float(hist.mean),
        "min": float(hist.min) if hist.total else 0.0,
        "max": float(hist.max) if hist.total else 0.0,
    }
    for q in _PERCENTILES:
        block[f"p{q:g}"] = float(hist.percentile(q))
    return block


def build_report(result, *, extra: dict | None = None) -> dict:
    """Build the versioned report dict for a ``RunResult``.

    Works on any result carrying the core fields; trace-derived sections
    (latency percentiles, utilization timelines' peaks) appear
    only when the run was traced.  The output round-trips through
    ``json.dumps``/``loads`` unchanged.
    """
    elapsed = result.elapsed
    counters = {name: float(v) for name, v in sorted(result.counters.items())}
    report: dict = {
        "schema": REPORT_SCHEMA,
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": type(result).__name__,
        "seed": getattr(result, "seed", None),
        "config_fingerprint": getattr(result, "config_fingerprint", None),
        "elapsed": elapsed,
        "total_walks": result.total_walks,
        "hops": result.hops,
        "walks_per_sec": result.total_walks / elapsed if elapsed > 0 else 0.0,
        "hops_per_sec": result.hops / elapsed if elapsed > 0 else 0.0,
        "traffic": {
            "flash_read_bytes": result.flash_read_bytes,
            "flash_write_bytes": result.flash_write_bytes,
            "channel_bytes": result.channel_bytes,
            "dram_bytes": result.dram_bytes,
        },
        "counters": counters,
        "utilization": _jsonable(getattr(result, "utilization", lambda: {})()),
    }
    service = getattr(result, "service", None)
    if service is not None:
        report["service"] = _jsonable(service)
    durability = getattr(result, "durability", None)
    if durability is not None:
        report["durability"] = _jsonable(durability)
    ftl = getattr(result, "ftl", None)
    if ftl is not None:
        report["ftl"] = _jsonable(ftl)
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        report["telemetry"] = _jsonable(telemetry)
    trace = getattr(result, "trace", None)
    if trace is not None:
        report["latency_percentiles"] = {
            name: _percentile_block(hist)
            for name, hist in sorted(trace.latency_histograms().items())
        }
        report["buffer_highwater"] = _jsonable(trace.highwaters)
        report["trace"] = {
            "events": len(trace.events),
            "dropped": trace.dropped,
            "span_counts": trace.span_counts(),
        }
    if extra:
        report["extra"] = _jsonable(extra)
    return _jsonable(report)


# -- diffing ----------------------------------------------------------------

#: Scalar top-level fields compared by diff_reports.
_DIFF_SCALARS = ("elapsed", "total_walks", "hops", "walks_per_sec", "hops_per_sec")


def diff_reports(a: dict, b: dict, rel_tol: float = 0.0) -> dict:
    """Compare two reports; returns {key: {"a":, "b":, "rel":}} of changes.

    ``rel_tol`` suppresses relative changes at or below the tolerance
    (useful for noisy wall-clock-derived fields).  Counters present in
    only one report diff against 0.
    """
    changes: dict[str, dict] = {}

    def _compare(key: str, va, vb) -> None:
        if va == vb:
            return
        try:
            fa, fb = float(va), float(vb)
        except (TypeError, ValueError):
            changes[key] = {"a": va, "b": vb, "rel": None}
            return
        base = max(abs(fa), abs(fb))
        rel = (fb - fa) / base if base else 0.0
        if abs(rel) > rel_tol:
            changes[key] = {"a": fa, "b": fb, "rel": rel}

    for key in _DIFF_SCALARS:
        _compare(key, a.get(key), b.get(key))
    for key in ("seed", "config_fingerprint", "schema_version"):
        if a.get(key) != b.get(key):
            changes[key] = {"a": a.get(key), "b": b.get(key), "rel": None}
    ca, cb = a.get("counters", {}), b.get("counters", {})
    for name in sorted(set(ca) | set(cb)):
        _compare(f"counters.{name}", ca.get(name, 0.0), cb.get(name, 0.0))
    ta, tb = a.get("traffic", {}), b.get("traffic", {})
    for name in sorted(set(ta) | set(tb)):
        _compare(f"traffic.{name}", ta.get(name, 0.0), tb.get(name, 0.0))
    # Structured sections are swept generically, so a report pair that
    # differs only in one section (e.g. "telemetry") names that
    # section instead of silently matching or failing bare.
    for section in sorted(_sections(a) | _sections(b)):
        sa, sb = a.get(section), b.get(section)
        if (sa is None) != (sb is None):
            changes[section] = {
                "a": "present" if sa is not None else None,
                "b": "present" if sb is not None else None,
                "rel": None,
            }
        elif sa is not None:
            fa, fb = _flatten(sa, section), _flatten(sb, section)
            for key in sorted(set(fa) | set(fb)):
                _compare(key, fa.get(key), fb.get(key))
    return changes


#: Top-level keys never swept as sections: scalars and the two
#: sections handled above.
_NON_SECTION_KEYS = frozenset(
    _DIFF_SCALARS
) | {
    "schema", "schema_version", "kind", "seed", "config_fingerprint",
    "counters", "traffic",
}


def _sections(report: dict) -> set[str]:
    return {
        key
        for key, value in report.items()
        if key not in _NON_SECTION_KEYS and isinstance(value, (dict, list))
    }


def _flatten(obj, prefix: str) -> dict:
    """Flatten a nested report section to dotted scalar leaves."""
    out: dict = {}
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.update(_flatten(obj[k], f"{prefix}.{k}"))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}[{i}]"))
    else:
        out[prefix] = obj
    return out


# -- validation --------------------------------------------------------------

_REQUIRED_KEYS = (
    "schema", "schema_version", "seed", "elapsed", "total_walks",
    "hops", "traffic", "counters",
)


def validate_report(obj) -> list[str]:
    """Structural checks for a run-report dict; returns problem strings.

    Accepts only :data:`REPORT_SCHEMA_VERSION`.  An optional
    ``telemetry`` section has its series shapes checked against its
    declared sample count.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"report must be a JSON object, got {type(obj).__name__}"]
    if obj.get("schema") != REPORT_SCHEMA:
        problems.append(
            f"schema is {obj.get('schema')!r}, expected {REPORT_SCHEMA!r}"
        )
    version = obj.get("schema_version")
    if not _is_int(version) or version != REPORT_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version!r} is not {REPORT_SCHEMA_VERSION}"
        )
    for key in _REQUIRED_KEYS:
        if key not in obj:
            problems.append(f"missing required key {key!r}")
    if not isinstance(obj.get("counters", {}), dict):
        problems.append("counters must be an object")
    if not isinstance(obj.get("traffic", {}), dict):
        problems.append("traffic must be an object")
    telemetry = obj.get("telemetry")
    if telemetry is not None:
        problems.extend(_validate_telemetry(telemetry))
    return problems


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` subclasses ``int`` but ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_telemetry(tel) -> list[str]:
    problems: list[str] = []
    if not isinstance(tel, dict):
        return ["telemetry must be an object"]
    interval = tel.get("sample_interval")
    if not (isinstance(interval, (int, float)) and not isinstance(interval, bool)
            and interval > 0):
        problems.append("telemetry.sample_interval must be > 0")
    n = tel.get("samples")
    if not _is_int(n) or n < 1:
        problems.append("telemetry.samples must be a positive integer")
        n = None
    series = tel.get("series")
    if not isinstance(series, list):
        problems.append("telemetry.series must be a list")
        series = []
    for i, entry in enumerate(series):
        where = f"telemetry.series[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        if entry.get("kind") not in ("counter", "gauge", "histogram"):
            problems.append(f"{where}.kind {entry.get('kind')!r} unknown")
        if not entry.get("name"):
            problems.append(f"{where} missing name")
        values = entry.get("values")
        if not isinstance(values, list) or (
            n is not None and len(values) != n
        ):
            problems.append(
                f"{where}.values must be a list of length telemetry.samples"
            )
        if entry.get("kind") == "histogram":
            buckets = entry.get("buckets")
            counts = entry.get("counts")
            if not isinstance(buckets, list) or not isinstance(counts, list) \
                    or len(counts) != len(buckets) + 1:
                problems.append(
                    f"{where}: histogram needs counts of len(buckets)+1"
                )
    alerts = tel.get("alerts")
    if alerts is not None:
        if not isinstance(alerts, dict) or not isinstance(
            alerts.get("firings", []), list
        ):
            problems.append("telemetry.alerts.firings must be a list")
    return problems
