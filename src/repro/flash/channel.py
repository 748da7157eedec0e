"""Flash channel model: the ONFI bus plus its chips.

The channel bus is the narrow resource FlashWalker is designed around:
NV-DDR2 at 333 MB/s versus ~1.8 GB/s of plane bandwidth behind it
(Section II-C).  Everything that crosses it — page data to the channel
controller, extended-ONFI commands to chip accelerators, roving walks
moving up, walk buffers flushing down — pays for bus time here, and the
byte counters feed the Fig. 8 channel-bandwidth timeline.
"""

from __future__ import annotations

from ..common.config import SSDConfig
from ..common.errors import FaultExhaustedError, FlashAddressError
from ..common.state import Stateful
from ..obs.tracer import PID_BUS as _PID_BUS
from ..sim.resources import BandwidthLink
from .nand import FlashChip

__all__ = ["FlashChannel", "ONFI_COMMAND_BYTES"]

#: Approximate size of an (extended) ONFI command frame on the bus:
#: command + address cycles + FlashWalker command payload.
ONFI_COMMAND_BYTES = 16


class FlashChannel(Stateful):
    """One flash channel: a serial bus and ``chips_per_channel`` chips."""

    PARTS = ("bus", "chips")

    def __init__(self, channel_id: int, cfg: SSDConfig):
        self.channel_id = channel_id
        self.cfg = cfg
        first_chip = channel_id * cfg.chips_per_channel
        self.chips = [
            FlashChip(first_chip + i, cfg) for i in range(cfg.chips_per_channel)
        ]
        self.bus = BandwidthLink(
            f"channel{channel_id}.bus", cfg.channel_bytes_per_sec
        )
        #: Optional :class:`~repro.faults.FaultModel`; None = clean bus.
        self.fault_model = None
        #: Optional :class:`~repro.obs.Tracer`; None = no recording.
        self.tracer = None
        #: Optional :class:`~repro.faults.SlowFaultModel`; None = nominal
        #: bus.  Inside an active ``channel-bus`` slow window every
        #: transfer is stretched by the window's factor (a degraded link
        #: retraining, not an error — no CRC draw, no retransmission).
        self.slow_model = None

    def _bus_xfer(self, now: float, nbytes: int | float) -> float:
        """One raw bus transfer, stretched if a slow window is active."""
        end = self.bus.transfer(now, nbytes)
        sm = self.slow_model
        if sm is not None:
            nominal = float(nbytes) / self.bus.bytes_per_sec
            extra = sm.bus_extra(self.channel_id, now, nominal)
            if extra > 0.0:
                end = self.bus.stall(end, extra)
        return end

    def chip(self, index: int) -> FlashChip:
        if not 0 <= index < len(self.chips):
            raise FlashAddressError(
                f"channel {self.channel_id}: chip index {index} out of range "
                f"[0, {len(self.chips)})"
            )
        return self.chips[index]

    # -- bus operations -----------------------------------------------------------

    def send_command(self, now: float) -> float:
        """Transfer one command frame; returns completion time.

        Command frames are CRC-protected but tiny, so the fault model
        only corrupts *data* transfers; a corrupted command would be
        re-issued at negligible extra cost.
        """
        end = self._bus_xfer(now, ONFI_COMMAND_BYTES)
        tr = self.tracer
        if tr is not None:
            self._trace_bus_busy(tr, end, ONFI_COMMAND_BYTES)
        return end

    def transfer_data(
        self, now: float, nbytes: int | float, *, recover: bool = True
    ) -> float:
        """Move ``nbytes`` of data over the bus; returns completion time.

        With a fault model attached, a transfer that arrives corrupted is
        retransmitted (after an exponentially backed-off pause) up to
        ``max_crc_retries`` times, each retransmission paying full bus
        time again.  If every retransmission is also corrupted,
        ``recover=True`` (the engine default) performs a link reset and
        one final clean transfer; ``recover=False`` raises
        :class:`FaultExhaustedError`.
        """
        end = self._bus_xfer(now, nbytes)
        tr = self.tracer
        fm = self.fault_model
        if fm is None:
            if tr is not None:
                self._trace_transfer(tr, now, end, end, nbytes)
            return end
        first_end = end
        attempts = fm.draw_transfer()
        if attempts != 0:
            n = attempts if attempts > 0 else fm.cfg.max_crc_retries
            for k in range(1, n + 1):
                end = self._bus_xfer(end + fm.crc_delay(k), nbytes)
                if tr is not None:
                    self._trace_bus_busy(tr, end, nbytes)
            if tr is not None:
                tr.span(
                    "fault", _PID_BUS, self.channel_id, "crc_retransmit",
                    first_end, end,
                    args={"bytes": int(nbytes), "retransmissions": n,
                          "recovered": attempts > 0},
                )
            if attempts < 0:
                if not recover:
                    raise FaultExhaustedError(
                        f"channel {self.channel_id}: transfer of {nbytes} B "
                        f"corrupted after {fm.cfg.max_crc_retries} retransmissions",
                        at=end,
                        channel=self.channel_id,
                    )
                fm.note_crc_reset()
                end = self._bus_xfer(end + fm.cfg.crc_reset_latency, nbytes)
                if tr is not None:
                    tr.instant("fault", _PID_BUS, self.channel_id, "link_reset", end)
                    self._trace_bus_busy(tr, end, nbytes)
        if tr is not None:
            self._trace_transfer(tr, now, first_end, end, nbytes)
        return end

    def transfer_meta(self, now: float, nbytes: int | float) -> float:
        """Move FTL metadata (translation pages) over the bus.

        Charged full bus time — translation traffic steals bandwidth from
        walks, which is what the DFTL layer models — but exempt from the
        CRC fault draws: metadata transfers consuming draws would shift
        every subsequent fault arrival in runs that never enable DFTL's
        counterpart knobs, breaking default-path byte-identity.
        """
        end = self._bus_xfer(now, nbytes)
        tr = self.tracer
        if tr is not None:
            self._trace_bus_busy(tr, end, nbytes)
        return end

    def _trace_bus_busy(self, tr, end: float, nbytes: int | float) -> None:
        """Attribute one raw transfer's bus occupancy ending at ``end``."""
        duration = float(nbytes) / self.bus.bytes_per_sec
        tr.busy("bus", end - duration, end)
        tr.busy(f"bus.ch{self.channel_id}", end - duration, end)

    def _trace_transfer(
        self, tr, issued: float, first_end: float, end: float, nbytes: int | float
    ) -> None:
        """Record a data transfer's span (queueing included) + stats."""
        self._trace_bus_busy(tr, first_end, nbytes)
        tr.span("bus", _PID_BUS, self.channel_id, "xfer", issued, end,
                args={"bytes": int(nbytes)})
        tr.latency("bus_transfer", end - issued)

    def read_page_to_controller(self, now: float, chip: int, die: int, plane: int) -> float:
        """Full channel read: array sense then bus transfer of the page.

        This is the *conventional* data path (what GraphWalker-era SSDs
        do for every page); chip-level accelerators skip the bus half.
        """
        sensed = self.chip(chip).read_page(now, die, plane)
        return self.transfer_data(sensed, self.cfg.page_bytes)

    def write_page_from_controller(
        self, now: float, chip: int, die: int, plane: int
    ) -> float:
        """Full channel write: bus transfer of the page then array program."""
        arrived = self.transfer_data(now, self.cfg.page_bytes)
        return self.chip(chip).program_page(arrived, die, plane)

    # -- accounting ----------------------------------------------------------------

    @property
    def bytes_on_bus(self) -> int:
        return self.bus.bytes_moved

    def bytes_read_from_planes(self) -> int:
        return sum(c.bytes_read for c in self.chips)

    def bytes_programmed_to_planes(self) -> int:
        return sum(c.bytes_programmed for c in self.chips)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashChannel(id={self.channel_id}, chips={len(self.chips)}, "
            f"bus_bytes={self.bytes_on_bus})"
        )
