"""Physical units and conversion helpers.

All simulator times are in **seconds** (floats) and all capacities in
**bytes** (ints).  This module centralises the constants so that configs
and models never hard-code magic numbers, and provides small formatting
helpers for human-readable output in the experiment harness.
"""

from __future__ import annotations

# --- capacity ---------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

# Decimal variants used by bus/bandwidth specs (e.g. "333 MB/s" in ONFI
# NV-DDR2 is a decimal megabyte rate).
KB_D = 1000
MB_D = 1000 * KB_D
GB_D = 1000 * MB_D

# --- time -------------------------------------------------------------------

SEC = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9

# --- formatting -------------------------------------------------------------


def fmt_bytes(n: int | float) -> str:
    """Render a byte count with a binary-prefix unit, e.g. ``5.8GB``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if n >= unit:
            return f"{sign}{n / unit:.2f}{name}"
    return f"{sign}{n:.0f}B"


def fmt_time(t: float) -> str:
    """Render a duration with an appropriate unit, e.g. ``35.0us``."""
    sign = "-" if t < 0 else ""
    t = abs(t)
    if t >= 1.0:
        return f"{sign}{t:.3f}s"
    if t >= MS:
        return f"{sign}{t / MS:.3f}ms"
    if t >= US:
        return f"{sign}{t / US:.3f}us"
    return f"{sign}{t / NS:.1f}ns"


def fmt_bandwidth(bytes_per_sec: float) -> str:
    """Render a bandwidth, e.g. ``10.4GB/s``."""
    return fmt_bytes(bytes_per_sec) + "/s"


def fmt_count(n: int | float) -> str:
    """Render a large count with K/M/B suffix, e.g. ``1.46B``."""
    n = float(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, name in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if n >= unit:
            return f"{sign}{n / unit:.2f}{name}"
    return f"{sign}{n:.0f}"
