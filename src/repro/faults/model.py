"""Seeded fault model: every injected error is a named-RNG draw.

The model is a pure decision oracle: it answers "did this page read
fail, and how many retry rungs did it climb?" — the *latency* of those
decisions is charged by the component that asked (plane occupancy in
:mod:`repro.flash.nand`, bus time in :mod:`repro.flash.channel`), so all
fault overhead flows through the normal timing model and shows up in the
same counters the paper's figures are built from.

Draw order equals simulation event order, which the event engine makes
deterministic, so a (seed, FaultConfig) pair fully determines a run.
"""

from __future__ import annotations

import numpy as np

from ..common.config import FaultConfig
from ..common.state import Stateful
from ..obs.tracer import PID_FAULTS as _PID_FAULTS

__all__ = ["FaultModel"]


class FaultModel(Stateful):
    """Decision oracle + counters for injected hardware faults."""

    STATE = (
        "failed_chips",
        "read_faults",
        "read_retries",
        "reads_exhausted",
        "bad_block_remaps",
        "crc_errors",
        "crc_retries",
        "crc_resets",
        "chip_failures",
    )

    def __init__(self, cfg: FaultConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        #: Flat chip ids (channel * chips_per_channel + chip) declared dead.
        self.failed_chips: set[int] = set()
        #: Optional :class:`~repro.obs.Tracer` (with a bound clock — the
        #: oracle itself is timeless); None = no recording.
        self.tracer = None
        #: Optional :class:`~repro.obs.MetricsRegistry` (clock-bound,
        #: same as the tracer); records the retry-ladder depth histogram
        #: and exhaustion counters for faulted reads.
        self.telemetry = None
        # -- counters (merged into RunResult.counters as "fault_*") --
        self.read_faults = 0
        self.read_retries = 0
        self.reads_exhausted = 0
        self.bad_block_remaps = 0
        self.crc_errors = 0
        self.crc_retries = 0
        self.crc_resets = 0
        self.chip_failures = 0

    # -- NAND page reads -----------------------------------------------------

    def draw_read(self) -> int:
        """Outcome of one page read's ECC + read-retry ladder.

        Returns 0 if the first sense was clean, ``k > 0`` if the k-th
        escalating retry recovered the page, or -1 if all
        ``max_read_retries`` rungs failed (retries exhausted).
        """
        if self.rng.random() >= self.cfg.page_error_rate:
            return 0
        self.read_faults += 1
        outcome = -1
        for attempt in range(1, self.cfg.max_read_retries + 1):
            self.read_retries += 1
            if self.rng.random() < self.cfg.retry_success_prob:
                outcome = attempt
                break
        if outcome < 0:
            self.reads_exhausted += 1
        mx = self.telemetry
        if mx is not None:
            # Depth climbed on this faulted read (exhausted reads climbed
            # the full ladder); clean first senses are not observed.
            depth = outcome if outcome > 0 else self.cfg.max_read_retries
            mx.histogram(
                "fault_read_retry_depth",
                tuple(range(1, self.cfg.max_read_retries + 1)),
            ).observe(depth)
            if outcome < 0:
                mx.counter("fault_reads_exhausted").inc(1.0)
        return outcome

    def read_retry_latency(self, base: float, attempts: int) -> float:
        """Array time of ``attempts`` escalating re-senses.

        Rung ``k`` re-senses with a shifted/finer reference voltage at
        ``base * retry_backoff**k``.
        """
        b = self.cfg.retry_backoff
        return base * sum(b**k for k in range(1, attempts + 1))

    def note_remap(self) -> None:
        self.bad_block_remaps += 1

    # -- channel CRC ---------------------------------------------------------

    def draw_transfer(self) -> int:
        """Outcome of one bus data transfer's CRC check + retransmits.

        Same convention as :meth:`draw_read`: 0 clean, ``k > 0`` if the
        k-th retransmission arrived intact, -1 if ``max_crc_retries``
        retransmissions all failed.
        """
        if self.rng.random() >= self.cfg.crc_error_rate:
            return 0
        self.crc_errors += 1
        for attempt in range(1, self.cfg.max_crc_retries + 1):
            self.crc_retries += 1
            if self.rng.random() < self.cfg.crc_retry_success_prob:
                return attempt
        return -1

    def crc_delay(self, attempt: int) -> float:
        """Backoff pause before retransmission ``attempt`` (1-based)."""
        return self.cfg.crc_retry_delay * self.cfg.crc_backoff ** (attempt - 1)

    def note_crc_reset(self) -> None:
        self.crc_resets += 1

    # -- chip failures -------------------------------------------------------

    def fail_chip(self, chip_flat: int) -> bool:
        """Declare a chip dead; returns False if it already was."""
        if chip_flat in self.failed_chips:
            return False
        self.failed_chips.add(chip_flat)
        self.chip_failures += 1
        tr = self.tracer
        if tr is not None:
            tr.instant(
                "fault", _PID_FAULTS, chip_flat, "chip_failure",
                args={"chip": int(chip_flat), "total_failed": len(self.failed_chips)},
            )
        return True

    def is_failed(self, chip_flat: int) -> bool:
        return chip_flat in self.failed_chips

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "fault_read_faults": self.read_faults,
            "fault_read_retries": self.read_retries,
            "fault_reads_exhausted": self.reads_exhausted,
            "fault_bad_block_remaps": self.bad_block_remaps,
            "fault_crc_errors": self.crc_errors,
            "fault_crc_retries": self.crc_retries,
            "fault_crc_resets": self.crc_resets,
            "fault_chip_failures": self.chip_failures,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultModel(read_faults={self.read_faults}, "
            f"crc_errors={self.crc_errors}, failed_chips={sorted(self.failed_chips)})"
        )
