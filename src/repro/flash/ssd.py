"""Whole-SSD assembly: channels, chips, FTL, DRAM.

:class:`SSD` is the substrate FlashWalker runs on.  Its accelerators
call into chips and channel buses directly, bypassing the narrow links
to the host — that asymmetry *is* the paper's contribution.  The
GraphWalker and DrunkardMob baselines do not run on this model: they
time their disk reads from ``GraphWalkerConfig.disk_read_bytes_per_sec``.
"""

from __future__ import annotations

from ..common.config import DRAMConfig, SSDConfig
from ..common.errors import FlashAddressError
from ..common.state import Stateful
from .channel import FlashChannel
from .cmt import DFTL
from .dram import DRAM
from .ftl import FTL
from .nand import FlashChip

__all__ = ["SSD"]


class SSD(Stateful):
    """Behavioral SSD with the paper's Table I/III geometry."""

    PARTS = ("channels", "dram", "ftl", "dftl")

    def __init__(self, cfg: SSDConfig | None = None, dram_cfg: DRAMConfig | None = None):
        self.cfg = (cfg or SSDConfig()).validate()
        self.channels = [FlashChannel(i, self.cfg) for i in range(self.cfg.channels)]
        self.ftl = FTL(self.cfg)
        self.dram = DRAM(dram_cfg or DRAMConfig())
        self.fault_model = None
        self.slow_model = None
        self.tracer = None
        self.integrity = None
        fcfg = getattr(self.cfg, "ftl", None)
        #: DFTL coordinator (cached mapping table + translation traffic);
        #: None on the default path, where translation is modeled as free.
        self.dftl = DFTL(self.cfg) if fcfg is not None and fcfg.enabled else None

    def restore(self, state: dict) -> None:
        # An FTL state restores onto a pristine FTL (see FTL.restore).
        self.ftl = FTL(self.cfg)
        super().restore(state)

    def attach_fault_model(self, fault_model) -> None:
        """Wire a :class:`~repro.faults.FaultModel` through the device.

        Every chip and channel bus starts drawing fault outcomes, and
        exhausted page reads retire blocks through the FTL's bad-block
        machinery.  Pass ``None`` to detach (ideal hardware again).
        """
        self.fault_model = fault_model
        for ch in self.channels:
            ch.fault_model = fault_model
            for chip in ch.chips:
                chip.fault_model = fault_model
                chip.on_bad_block = (
                    self._on_bad_block if fault_model is not None else None
                )

    def attach_slow_model(self, slow_model) -> None:
        """Wire a :class:`~repro.faults.SlowFaultModel` through the device.

        Chips start stretching array ops and channel buses start
        stretching transfers inside active slow windows.  Pass ``None``
        to detach (nominal latencies, one attribute check of overhead).
        """
        self.slow_model = slow_model
        for ch in self.channels:
            ch.slow_model = slow_model
            for chip in ch.chips:
                chip.slow_model = slow_model

    def attach_integrity(self, tracker) -> None:
        """Wire an :class:`~repro.durability.IntegrityTracker` through the
        device: every chip's page reads start running the end-to-end
        checksum check.  Pass ``None`` to detach (the default path, one
        attribute check of overhead)."""
        self.integrity = tracker
        for ch in self.channels:
            for chip in ch.chips:
                chip.integrity = tracker

    def attach_tracer(self, tracer) -> None:
        """Wire a :class:`~repro.obs.Tracer` through the device.

        Every chip and channel bus starts recording spans and busy
        windows.  Pass ``None`` to detach; detached is the default and
        leaves the timing paths at one attribute check of overhead.
        """
        self.tracer = tracer
        for ch in self.channels:
            ch.tracer = tracer
            for chip in ch.chips:
                chip.tracer = tracer

    def _on_bad_block(self, chip_id: int, die: int, plane: int) -> None:
        cpc = self.cfg.chips_per_channel
        flat = self.ftl.flat_plane(chip_id // cpc, chip_id % cpc, die, plane)
        self.ftl.retire_active_block(flat)

    # -- topology ------------------------------------------------------------

    def channel(self, index: int) -> FlashChannel:
        if not 0 <= index < len(self.channels):
            raise FlashAddressError(
                f"channel {index} out of range [0, {len(self.channels)})"
            )
        return self.channels[index]

    def chip(self, channel: int, chip: int) -> FlashChip:
        return self.channel(channel).chip(chip)

    def chip_flat(self, flat_index: int) -> FlashChip:
        """Chip by flat index in [0, total_chips)."""
        cpc = self.cfg.chips_per_channel
        if not 0 <= flat_index < self.cfg.total_chips:
            raise FlashAddressError(
                f"flat chip index {flat_index} out of range "
                f"[0, {self.cfg.total_chips})"
            )
        return self.chip(flat_index // cpc, flat_index % cpc)

    # -- DFTL translation + background-GC charging -----------------------------

    def _charge_translation(self, now: float, chip_flat: int, charge) -> float:
        """Charge one CMT probe's translation traffic to a chip's resources.

        Translation-page *reads* are blocking (the walk/flush that missed
        cannot proceed until its mapping arrives): array sense plus a bus
        transfer of the page, serialized in probe order.  Dirty-eviction
        *writebacks* are charged (bus + program occupancy) but do not
        extend the returned completion time — the controller fires them
        and moves on.
        """
        dftl = self.dftl
        chip = self.chip_flat(chip_flat)
        ch = self.channels[chip_flat // self.cfg.chips_per_channel]
        end = now
        for tpage in charge.tpage_reads:
            die, plane = dftl.tpage_home(tpage)
            sensed = chip.internal_read_page(end, die, plane)
            end = ch.transfer_meta(sensed, self.cfg.page_bytes)
        dftl.translation_page_reads += len(charge.tpage_reads)
        for tpage in charge.tpage_writebacks:
            die, plane = dftl.tpage_home(tpage)
            arrived = ch.transfer_meta(end, self.cfg.page_bytes)
            chip.program_page(arrived, die, plane)
        dftl.translation_page_writes += len(charge.tpage_writebacks)
        tel = dftl.telemetry
        if tel is not None and (charge.hits or charge.misses):
            if charge.hits:
                tel.counter("ftl_cmt_hits_total").inc(float(charge.hits), now)
            if charge.misses:
                tel.counter("ftl_cmt_misses_total").inc(float(charge.misses), now)
            if charge.tpage_reads:
                tel.counter("ftl_translation_page_reads_total").inc(
                    float(len(charge.tpage_reads)), now
                )
            if charge.tpage_writebacks:
                tel.counter("ftl_translation_page_writes_total").inc(
                    float(len(charge.tpage_writebacks)), now
                )
        return end

    def dftl_probe(
        self, now: float, chip_flat: int, lpns, write: bool = False
    ) -> float:
        """Translate a batch of lpns through the CMT, charging misses.

        No-op (returns ``now``) when DFTL is disabled, keeping the
        default path at one attribute check.  ``chip_flat`` names the
        chip whose accelerator (or whose resident subgraph) issued the
        batch — its dispatcher/planes and its channel's bus absorb the
        translation traffic.
        """
        dftl = self.dftl
        if dftl is None:
            return now
        charge = dftl.cmt.probe(lpns, write=write)
        if not charge:
            return now
        return self._charge_translation(now, chip_flat, charge)

    def ftl_gc_collect(self, now: float, flat: int) -> tuple[float, dict | None]:
        """One background-GC block reclaim on a plane, hardware-charged.

        Runs :meth:`FTL.gc_once` and pays for it: each surviving page is
        an internal read + program serialized on the victim's plane, then
        the erase.  Survivor mapping entries re-enter the CMT dirty, so
        the move also pays translation traffic.  Returns (completion
        time, gc_once result).
        """
        res = self.ftl.gc_once(flat)
        if res is None:
            return now, None
        channel, chip_idx, die, plane = self.ftl._plane_addr(flat)
        chip = self.chip(channel, chip_idx)
        end = now
        for _ in range(res["moved"]):
            end = chip.internal_read_page(end, die, plane)
            end = chip.program_page(end, die, plane)
        end = chip.erase_block(end, die, plane)
        dftl = self.dftl
        if dftl is not None and res["lpns"]:
            charge = dftl.cmt.probe(res["lpns"], write=True)
            if charge:
                end = self._charge_translation(end, channel * self.cfg.chips_per_channel + chip_idx, charge)
        tel = dftl.telemetry if dftl is not None else None
        if tel is not None:
            tel.counter("ftl_gc_runs_total").inc(1.0, now)
            if res["moved"]:
                tel.counter("ftl_gc_moved_pages_total").inc(float(res["moved"]), now)
        return end, res

    # -- logical I/O through the FTL ------------------------------------------

    def write_lpn_from_controller(
        self, now: float, lpn: int, plane_hint: int | None = None
    ) -> float:
        """Allocate + program one logical page from the controller."""
        addr = self.ftl.write(lpn, plane_hint=plane_hint)
        ch = self.channel(addr.channel)
        return ch.write_page_from_controller(now, addr.chip, addr.die, addr.plane)

    # -- aggregate accounting ----------------------------------------------------

    def bytes_read_from_planes(self) -> int:
        return sum(ch.bytes_read_from_planes() for ch in self.channels)

    def bytes_programmed_to_planes(self) -> int:
        return sum(ch.bytes_programmed_to_planes() for ch in self.channels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSD({self.cfg.channels}ch x {self.cfg.chips_per_channel}chips, "
            f"read={self.bytes_read_from_planes()}B)"
        )
