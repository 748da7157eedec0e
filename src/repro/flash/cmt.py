"""DFTL Cached Mapping Table and translation-layer coordinator.

Real page-mapped FTLs cannot hold the full logical-to-physical table in
controller DRAM; DFTL (Gupta et al., ASPLOS'09) caches a *budgeted*
subset of mapping entries and stores the rest in flash-resident
translation pages.  A lookup that misses the cache reads the owning
translation page through the same chip/channel resources host traffic
uses; evicting a dirty entry writes its translation page back.  That
traffic — plus background GC's valid-page migrations — is what
in-storage walk compute must share the device with, and modeling it is
this module's job.

Two classes:

* :class:`CachedMappingTable` — a pure state machine: entry-granularity
  LRU over lpn keys with batch probe semantics.  No timing, no RNG; it
  only reports which translation pages a probe batch must read and
  write back, so callers (:meth:`repro.flash.ssd.SSD.dftl_probe`)
  charge the hardware and same-seed runs stay byte-identical.
* :class:`DFTL` — the per-device coordinator: owns the CMT, the
  circular log region engine write streams rotate through, translation
  page placement, and write-amplification accounting.

Everything here is opt-in via :class:`~repro.common.config.FTLConfig`;
with ``enabled=False`` neither class is constructed.
"""

from __future__ import annotations

from collections import OrderedDict

from ..common.config import SSDConfig
from ..common.errors import ConfigError, FlashError
from ..common.state import Stateful

__all__ = ["CachedMappingTable", "CMTCharge", "DFTL"]


class CMTCharge:
    """Hardware work one probe batch incurred (translation-page ids)."""

    __slots__ = ("hits", "misses", "tpage_reads", "tpage_writebacks")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        #: Distinct translation pages to read (one array read + one bus
        #: transfer each); deduped within the batch — a real controller
        #: fetches a translation page once and resolves every miss on it.
        self.tpage_reads: list[int] = []
        #: Translation pages to write back for dirty evictions (one bus
        #: transfer + one program each), deduped within the batch.
        self.tpage_writebacks: list[int] = []

    def __bool__(self) -> bool:
        return bool(self.tpage_reads or self.tpage_writebacks)


class CachedMappingTable(Stateful):
    """Entry-granularity LRU cache over logical page numbers.

    ``capacity`` bounds resident entries; ``entries_per_tpage`` groups
    lpns into translation pages (``tpage = lpn // entries_per_tpage``).
    """

    STATE = ("_lru", "hits", "misses", "evictions", "writebacks", "tpage_reads")

    def __init__(self, capacity: int, entries_per_tpage: int):
        if capacity < 1:
            raise ConfigError(f"CMT capacity must be >= 1, got {capacity}")
        if entries_per_tpage < 1:
            raise ConfigError(
                f"entries_per_tpage must be >= 1, got {entries_per_tpage}"
            )
        self.capacity = capacity
        self.entries_per_tpage = entries_per_tpage
        #: lpn -> dirty flag, in LRU order (oldest first).
        self._lru: OrderedDict[int, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.tpage_reads = 0

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def probe(self, lpns, write: bool = False) -> CMTCharge:
        """Translate a batch of lpns, replayed in arrival order.

        Returns the :class:`CMTCharge` the batch incurred.  A write
        probe marks the entry dirty (its translation page must be
        written back when the entry is evicted).
        """
        charge = CMTCharge()
        read_pages: set[int] = set()
        wb_pages: set[int] = set()
        lru = self._lru
        for lpn in lpns:
            lpn = int(lpn)
            if lpn < 0:
                raise FlashError(f"CMT probe of negative lpn {lpn}")
            if lpn in lru:
                charge.hits += 1
                self.hits += 1
                lru[lpn] = lru[lpn] or write
                lru.move_to_end(lpn)
                continue
            charge.misses += 1
            self.misses += 1
            tpage = lpn // self.entries_per_tpage
            if tpage not in read_pages:
                read_pages.add(tpage)
                charge.tpage_reads.append(tpage)
                self.tpage_reads += 1
            while len(lru) >= self.capacity:
                old_lpn, dirty = lru.popitem(last=False)
                self.evictions += 1
                if dirty:
                    old_tp = old_lpn // self.entries_per_tpage
                    self.writebacks += 1
                    if old_tp not in wb_pages:
                        wb_pages.add(old_tp)
                        charge.tpage_writebacks.append(old_tp)
            lru[lpn] = write
        return charge

    def stats(self) -> dict[str, float]:
        return {
            "capacity": float(self.capacity),
            "resident": float(len(self._lru)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": float(self.hit_rate),
            "evictions": float(self.evictions),
            "writebacks": float(self.writebacks),
            "tpage_reads": float(self.tpage_reads),
        }


class DFTL(Stateful):
    """Per-device DFTL coordinator (constructed only when enabled).

    Owns the CMT, the circular log region the engine's write-back
    streams (walk spills, journal commits, completed-walk flushes)
    rotate through, and the translation-traffic counters that extend
    the FTL's data-path write amplification.
    """

    STATE = (
        "log_base",
        "log_span",
        "_log_cursor",
        "translation_page_reads",
        "translation_page_writes",
    )
    PARTS = ("cmt",)

    def __init__(self, cfg: SSDConfig):
        fcfg = cfg.ftl
        if not fcfg.enabled:
            raise ConfigError("DFTL constructed with FTLConfig.enabled=False")
        self.cfg = cfg
        self.ftl_cfg = fcfg
        self.entries_per_tpage = max(
            1, cfg.page_bytes // fcfg.translation_entry_bytes
        )
        self.cmt = CachedMappingTable(fcfg.cmt_entries, self.entries_per_tpage)
        #: Circular log region for engine write streams; set by the
        #: engine after graph placement (the region sits above the
        #: placed subgraph pages in lpn space).
        self.log_base = 0
        self.log_span = 0
        self._log_cursor = 0
        #: Translation-page traffic (charged by SSD.dftl_probe).
        self.translation_page_reads = 0
        self.translation_page_writes = 0
        #: Optional :class:`~repro.obs.MetricsRegistry`; wired by the
        #: engine when telemetry is on (mirrors FaultModel.telemetry).
        self.telemetry = None

    # -- log region ----------------------------------------------------------

    def set_log_region(self, base: int, span: int) -> None:
        if base < 0 or span < 1:
            raise ConfigError(
                f"bad DFTL log region: base={base}, span={span}"
            )
        self.log_base = int(base)
        self.log_span = int(span)

    def next_log_lpn(self) -> int:
        """Next lpn of the circular write log (wrap => overwrite => GC work)."""
        if self.log_span < 1:
            raise ConfigError("DFTL log region not initialised")
        lpn = self.log_base + (self._log_cursor % self.log_span)
        self._log_cursor += 1
        return lpn

    # -- translation-page placement -------------------------------------------

    def tpage_home(self, tpage: int) -> tuple[int, int]:
        """(die, plane) holding a translation page within the owning chip.

        Deterministic striping so translation reads spread over the
        chip's planes instead of serializing on one.
        """
        c = self.cfg
        die = tpage % c.dies_per_chip
        plane = (tpage // c.dies_per_chip) % c.planes_per_die
        return die, plane

    # -- accounting -----------------------------------------------------------

    def write_amplification(self, ftl) -> float:
        """Device-level WAF: data + GC moves + translation writebacks."""
        data = ftl.data_pages_written
        if data <= 0:
            return 1.0
        extra = (
            ftl.gc_moved_pages
            + ftl.bad_block_moved_pages
            + self.translation_page_writes
        )
        return (data + extra) / data

    def stats(self, ftl) -> dict:
        """The run report's ``ftl`` section."""
        return {
            "enabled": True,
            "cmt": self.cmt.stats(),
            "translation": {
                "entries_per_tpage": float(self.entries_per_tpage),
                "page_reads": float(self.translation_page_reads),
                "page_writes": float(self.translation_page_writes),
            },
            "log_region": {
                "base": float(self.log_base),
                "span": float(self.log_span),
                "pages_written": float(self._log_cursor),
            },
            "write_amplification": float(self.write_amplification(ftl)),
            "wear": ftl.wear_stats(),
        }
