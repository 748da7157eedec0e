"""NAND flash timing model: one chip and its planes.

A **plane** is the unit of array access: one read (35 us), program
(350 us) or erase (2 ms) at a time, with an SRAM page register (Section
II-C).  A chip keeps one busy-until time per plane, die by die, and
additionally caps how many plane operations can be in flight at once
(``max_concurrent_plane_ops_per_chip``), which is what bounds the paper's
55.8 GB/s aggregate read throughput.

The model is analytic (no events): operations return completion times and
update op counters.  Data *transfer* off the chip is the channel's
job (:mod:`repro.flash.channel`); chip-level accelerators read page
registers directly and never touch the channel bus — the core of
FlashWalker's design.
"""

from __future__ import annotations

from ..common.config import SSDConfig
from ..common.errors import FaultExhaustedError, FlashAddressError, FlashError
from ..common.state import Stateful
from ..obs.tracer import PID_FLASH as _PID_FLASH
from ..sim.resources import FcfsResource

__all__ = ["FlashChip"]


class FlashChip(Stateful):
    """One flash chip: dies x planes plus a chip-level op concurrency cap.

    Page addressing within the chip is ``(die, plane, block, page)``;
    bounds come from :class:`~repro.common.config.SSDConfig`.
    """

    STATE = ("reads", "programs", "erases", "_prog_cursor", "_plane_busy")
    PARTS = ("_op_slots",)

    def __init__(self, chip_id: int, cfg: SSDConfig):
        self.chip_id = chip_id
        self.cfg = cfg
        #: Busy-until time of every plane, die by die: plane ``(d, p)``
        #: sits at index ``d * planes_per_die + p``.
        self._plane_busy = [0.0] * cfg.planes_per_chip
        # The chip's internal op dispatcher: at most N plane ops in flight.
        self._op_slots = FcfsResource(
            f"chip{chip_id}.ops", cfg.max_concurrent_plane_ops_per_chip
        )
        self.reads = 0
        self.programs = 0
        self.erases = 0
        self._prog_cursor = 0
        #: Optional :class:`~repro.faults.FaultModel`; None = ideal NAND
        #: and the exact pre-fault-layer code path.
        self.fault_model = None
        #: Optional :class:`~repro.obs.Tracer`; None (default) keeps array
        #: ops at one attribute check of overhead.  The tracer only
        #: observes completion times already computed — it never feeds
        #: back into timing.
        self.tracer = None
        #: Called as ``on_bad_block(chip_id, die, plane)`` when a read
        #: exhausts its retry ladder and the page's block is remapped
        #: (wired to the FTL by :meth:`repro.flash.ssd.SSD.attach_fault_model`).
        self.on_bad_block = None
        #: Optional :class:`~repro.durability.IntegrityTracker`; None =
        #: no end-to-end checksum check on reads (the default path).
        self.integrity = None
        #: Optional :class:`~repro.faults.SlowFaultModel`; None = nominal
        #: latencies and the exact pre-gray-failure code path.  When set,
        #: array ops inside an active slow window are stretched by the
        #: window's factor (no RNG draws — windows are fixed at attach).
        self.slow_model = None

    @property
    def bytes_read(self) -> int:
        return self.reads * self.cfg.page_bytes

    @property
    def bytes_programmed(self) -> int:
        return self.programs * self.cfg.page_bytes

    # -- addressing -----------------------------------------------------------

    def _plane_index(self, die: int, plane: int) -> int:
        if not 0 <= die < self.cfg.dies_per_chip:
            raise FlashAddressError(
                f"chip {self.chip_id}: die {die} out of range "
                f"[0, {self.cfg.dies_per_chip})"
            )
        if not 0 <= plane < self.cfg.planes_per_die:
            raise FlashAddressError(
                f"chip {self.chip_id}: plane {plane} out of range "
                f"[0, {self.cfg.planes_per_die})"
            )
        return die * self.cfg.planes_per_die + plane

    def _occupy(self, k: int, now: float, duration: float) -> float:
        """Serialize an array op on plane ``k``; returns its end time."""
        if duration < 0:
            raise FlashError(f"chip {self.chip_id}: negative duration")
        busy = self._plane_busy
        start = busy[k] if busy[k] > now else now
        end = start + duration
        busy[k] = end
        return end

    # -- array operations -------------------------------------------------------

    def _array_op(self, now: float, die: int, plane: int, latency: float) -> float:
        """Run one plane op through the chip dispatcher + the plane."""
        k = self._plane_index(die, plane)
        # The op occupies both a chip dispatch slot and the plane for the
        # array time; the tighter of the two constraints dominates.
        slot_end = self._op_slots.acquire_for(now, latency)
        end = self._occupy(k, max(now, slot_end - latency), latency)
        tr = self.tracer
        if tr is not None:
            # [end - latency, end] is the exact plane-occupancy window
            # (plane ops are serial, end = start + latency).
            tr.busy("planes", end - latency, end)
        return end

    def read_page(
        self, now: float, die: int, plane: int, *, recover: bool = True
    ) -> float:
        """Sense one page into the plane's page register; returns end time.

        With a fault model attached, a failing read climbs an escalating
        read-retry ladder (each rung a slower re-sense of the same page,
        charged as extra plane/dispatcher occupancy).  If the ladder runs
        dry, ``recover=True`` (the engine default) remaps the page's
        block — last-ditch decode plus a program into a fresh block, with
        the victim retired through :attr:`on_bad_block` — while
        ``recover=False`` raises :class:`FaultExhaustedError` carrying
        the time the final rung failed.
        """
        sense = self.cfg.read_latency
        sm = self.slow_model
        if sm is not None:
            sense += sm.read_extra(self.chip_id, now, sense)
        end = self._array_op(now, die, plane, sense)
        self.reads += 1
        first_sense_end = end
        fm = self.fault_model
        if fm is not None:
            attempts = fm.draw_read()
            if attempts != 0:
                n = attempts if attempts > 0 else fm.cfg.max_read_retries
                # Re-senses of the same page: extra occupancy, no new
                # data.  The ladder re-senses at the (possibly slow-
                # inflated) sense cost, so a retry storm on a gray chip
                # compounds — exactly the pathology being modeled.
                extra = fm.read_retry_latency(sense, n)
                end = self._array_op(end, die, plane, extra)
                tr = self.tracer
                if tr is not None:
                    tr.span(
                        "fault", _PID_FLASH, self.chip_id, "read_retry_ladder",
                        first_sense_end, end,
                        args={"die": die, "plane": plane, "rungs": n,
                              "recovered": attempts > 0},
                    )
                if attempts < 0:
                    end = self._remap_bad_page(end, die, plane, recover)
        it = self.integrity
        if it is not None:
            # End-to-end checksum check: silent corruption passes the
            # ECC/retry ladder above but is caught (and RAIN-repaired)
            # here, delaying the verified data accordingly.
            end = it.on_read(self, die, plane, end)
        tr = self.tracer
        if tr is not None:
            tr.span("flash", _PID_FLASH, self.chip_id, "page_read", now, end,
                    args={"die": die, "plane": plane})
            tr.latency("page_read", end - now)
        return end

    def _remap_bad_page(
        self, now: float, die: int, plane: int, recover: bool
    ) -> float:
        """Recovery of last resort after an exhausted read-retry ladder."""
        fm = self.fault_model
        if not recover or not fm.cfg.remap_on_exhaustion:
            raise FaultExhaustedError(
                f"chip {self.chip_id} die {die} plane {plane}: page read "
                f"failed after {fm.cfg.max_read_retries} retries",
                at=now,
                chip=self.chip_id,
                die=die,
                plane=plane,
            )
        fm.note_remap()
        # Heroic decode (one more full sense worth of soft-decision
        # reads) then copy-out into a fresh block.
        end = self._array_op(now, die, plane, self.cfg.read_latency)
        end = self.program_page(end, die, plane)
        if self.on_bad_block is not None:
            self.on_bad_block(self.chip_id, die, plane)
        tr = self.tracer
        if tr is not None:
            tr.span("fault", _PID_FLASH, self.chip_id, "bad_block_remap", now, end,
                    args={"die": die, "plane": plane})
        return end

    def internal_read_page(self, now: float, die: int, plane: int) -> float:
        """Device-housekeeping page sense (DFTL translation fetch, GC move).

        Occupies the same chip dispatcher slot and plane as a host read —
        housekeeping *contends* with walk traffic, which is the point —
        but skips the fault-retry ladder and the integrity hook: those
        draw from seeded RNG streams, and housekeeping reads consuming
        draws would perturb every fault arrival in default-path runs.
        """
        sense = self.cfg.read_latency
        sm = self.slow_model
        if sm is not None:
            # Slow windows do apply: housekeeping on a gray chip is just
            # as degraded as host reads (and draws no RNG, so the ladder
            # caveat above does not apply).
            sense += sm.read_extra(self.chip_id, now, sense)
        end = self._array_op(now, die, plane, sense)
        self.reads += 1
        tr = self.tracer
        if tr is not None:
            tr.span("flash", _PID_FLASH, self.chip_id, "internal_read", now, end,
                    args={"die": die, "plane": plane})
        return end

    def program_page(self, now: float, die: int, plane: int) -> float:
        """Program one page from the page register; returns end time.

        Programs occupy only the target plane, not the chip's read
        dispatcher: modern NAND supports program-suspend so pending reads
        on other planes are not stalled behind 350 us programs.  (Without
        this, walk write-back traffic would serialize subgraph loads —
        a distortion of the paper's near-zero write impact, Fig. 8.)
        """
        k = self._plane_index(die, plane)
        prog = self.cfg.program_latency
        sm = self.slow_model
        if sm is not None:
            prog += sm.program_extra(self.chip_id, now, prog)
        end = self._occupy(k, now, prog)
        self.programs += 1
        tr = self.tracer
        if tr is not None:
            tr.span("flash", _PID_FLASH, self.chip_id, "page_program", now, end,
                    args={"die": die, "plane": plane})
            tr.busy("planes", end - prog, end)
        return end

    def erase_block(self, now: float, die: int, plane: int) -> float:
        """Erase one block; returns end time."""
        end = self._array_op(now, die, plane, self.cfg.erase_latency)
        self.erases += 1
        return end

    def program_pages_striped(self, now: float, n_pages: int) -> float:
        """Program ``n_pages`` at a rotating plane cursor (FTL-style
        allocation), so repeated small write-backs spread over all planes
        instead of serializing on one."""
        if n_pages < 1:
            raise FlashError(f"n_pages must be >= 1, got {n_pages}")
        end = now
        ppd = self.cfg.planes_per_die
        for _ in range(n_pages):
            c = self._prog_cursor
            self._prog_cursor += 1
            die = (c // ppd) % self.cfg.dies_per_chip
            plane = c % ppd
            end = max(end, self.program_page(now, die, plane))
        return end

    def read_pages_striped(self, now: float, n_pages: int) -> float:
        """Read ``n_pages`` striped round-robin across this chip's planes.

        Convenience for multi-page subgraph loads; returns the time the
        last page is available.
        """
        if n_pages < 1:
            raise FlashError(f"n_pages must be >= 1, got {n_pages}")
        end = now
        ppd = self.cfg.planes_per_die
        for i in range(n_pages):
            die = (i // ppd) % self.cfg.dies_per_chip
            plane = i % ppd
            end = max(end, self.read_page(now, die, plane))
        return end

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of the chip's op slots busy over ``elapsed``."""
        return self._op_slots.utilization(elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashChip(id={self.chip_id}, reads={self.reads}, "
            f"programs={self.programs})"
        )
