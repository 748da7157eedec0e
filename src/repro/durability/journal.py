"""Write-ahead walk journal: walk-progress deltas between checkpoints.

Quiescent checkpoints (:mod:`repro.faults.checkpoint`) are the recovery
baseline; the journal fills the gap between them.  Every completion
event appends one fixed-size record ``(seq, t, delta, cum, crc)`` to an
in-memory tail, and a group-commit event flushes the tail to flash on a
fixed cadence (``DurabilityConfig.journal_interval``), paying normal
channel/NAND write cost.  On a crash, records that reached flash are
*durable*: the recovery context reports RPO as the completed walks
beyond the last durable record, and charges the durable records' re-read
as journal replay time in the RTO estimate.

Records carry a CRC over their packed fields so recovery can verify the
journal before trusting it — a deliberately dropped or corrupted record
shows up as a sequence gap, a cumulative-count mismatch, or a CRC
failure from :meth:`WalkJournal.verify` (the auditor raises on any).
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

from ..common.state import Stateful

__all__ = ["JournalRecord", "WalkJournal"]

#: Packed payload layout: sequence number, simulated time, walks
#: completed by this record, cumulative completed walks.
_PAYLOAD = struct.Struct("<qdqq")


def _crc(seq: int, t: float, delta: int, cum: int) -> int:
    return zlib.crc32(_PAYLOAD.pack(seq, t, delta, cum)) & 0xFFFFFFFF


class JournalRecord(NamedTuple):
    """One walk-progress delta, checksummed."""

    seq: int
    t: float
    delta: int
    cum: int
    crc: int

    def intact(self) -> bool:
        return self.crc == _crc(self.seq, self.t, self.delta, self.cum)


class WalkJournal(Stateful):
    """Append-only journal of walk completions since the last checkpoint.

    Two segments: ``pending`` records sit in controller SRAM awaiting the
    next group commit (lost on power loss), ``durable`` records have been
    flushed to flash (survive).  A checkpoint truncates both — the
    snapshot itself supersedes them — and resets the base cumulative
    count.  All counters advance deterministically with the event
    stream, so a replayed run reproduces them exactly.
    """

    STATE = (
        "record_bytes",
        "base_cum",
        "_next_seq",
        "_pending",
        "_durable",
        "appends",
        "flushes",
        "records_flushed",
        "bytes_flushed",
        "pages_flushed",
        "last_flush_at",
    )

    def __init__(self, record_bytes: int = 32):
        self.record_bytes = int(record_bytes)
        self.base_cum = 0
        self._next_seq = 0
        self._pending: list[JournalRecord] = []
        self._durable: list[JournalRecord] = []
        self.appends = 0
        self.flushes = 0
        self.records_flushed = 0
        self.bytes_flushed = 0
        self.pages_flushed = 0
        self.last_flush_at = 0.0

    # -- writing --------------------------------------------------------------

    def append(self, t: float, delta: int, cum: int) -> JournalRecord:
        """Record ``delta`` walks completing at ``t`` (cumulative ``cum``)."""
        rec = JournalRecord(
            self._next_seq, float(t), int(delta), int(cum),
            _crc(self._next_seq, float(t), int(delta), int(cum)),
        )
        self._next_seq += 1
        self._pending.append(rec)
        self.appends += 1
        return rec

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return len(self._pending) * self.record_bytes

    def mark_flushed(self, t: float, pages: int = 0) -> int:
        """Group commit: every pending record becomes durable at ``t``.

        ``pages`` is the flash-page count the commit occupied (reported
        by the engine's flush path) — the journal's share of the
        device's write-amplification denominator.
        """
        n = len(self._pending)
        self._durable.extend(self._pending)
        self._pending.clear()
        self.flushes += 1
        self.records_flushed += n
        self.bytes_flushed += n * self.record_bytes
        self.pages_flushed += int(pages)
        self.last_flush_at = float(t)
        return n

    def on_checkpoint(self, cum: int) -> None:
        """Truncate at a quiescent checkpoint (the snapshot supersedes us)."""
        self.base_cum = int(cum)
        self._pending.clear()
        self._durable.clear()

    # -- recovery -------------------------------------------------------------

    def durable_cum(self) -> int:
        """Cumulative completed walks covered by durable state."""
        return self._durable[-1].cum if self._durable else self.base_cum

    def durable_records(self) -> int:
        return len(self._durable)

    def verify(self) -> list[str]:
        """Integrity-check the journal; returns violation strings (empty = ok)."""
        out: list[str] = []
        prev_cum = self.base_cum
        prev_seq: int | None = None
        for rec in (*self._durable, *self._pending):
            if not rec.intact():
                out.append(f"journal record seq={rec.seq}: CRC mismatch")
            if prev_seq is not None and rec.seq != prev_seq + 1:
                out.append(f"journal sequence gap: {prev_seq} -> {rec.seq}")
            prev_seq = rec.seq
            if rec.cum != prev_cum + rec.delta:
                out.append(
                    f"journal record seq={rec.seq}: cumulative count "
                    f"{rec.cum} != {prev_cum} + {rec.delta}"
                )
            prev_cum = rec.cum
        return out

    def stats(self) -> dict:
        """Replay-invariant counters for the report's durability section."""
        return {
            "record_bytes": self.record_bytes,
            "appends": self.appends,
            "flushes": self.flushes,
            "records_flushed": self.records_flushed,
            "bytes_flushed": self.bytes_flushed,
            "pages_flushed": self.pages_flushed,
            "last_flush_at": self.last_flush_at,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WalkJournal(base={self.base_cum}, durable={len(self._durable)}, "
            f"pending={len(self._pending)})"
        )
