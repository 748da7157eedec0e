"""Configuration dataclasses mirroring the paper's Tables I-III.

Three groups:

* :class:`SSDConfig` / :class:`DRAMConfig` — Table I/III hardware
  parameters of the simulated SSD and its on-board DRAM.
* :class:`AcceleratorConfig` / :class:`AcceleratorLevels` — Table II
  parameters of the chip-, channel- and board-level accelerators.
* :class:`FlashWalkerConfig` — everything above plus the design
  parameters from Section III (subgraph size, range size, Eq. 1's alpha /
  beta, topN/M, optimization toggles) and the scaling knobs documented in
  DESIGN.md Section 4.

All capacities are bytes, all times seconds, all rates bytes/second.
``validate()`` methods raise :class:`~repro.common.errors.ConfigError`
on inconsistent values; ``derived`` helpers compute the aggregate
bandwidth figures the paper quotes (Section II-C and Fig. 8).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import ConfigError
from .units import GB, GB_D, KB, MB, MB_D, MS, NS, US

__all__ = [
    "SSDConfig",
    "DRAMConfig",
    "AcceleratorConfig",
    "AcceleratorLevels",
    "FTLConfig",
    "FaultConfig",
    "SlowFaultConfig",
    "SLOW_FAULT_KINDS",
    "DurabilityConfig",
    "GraphWalkerConfig",
    "FlashWalkerConfig",
    "PAPER_SCALE",
]

#: Uniform scale divisor between the paper's testbed and our laptop-scale
#: runs (DESIGN.md Section 4): graph |V|/|E|, walk counts, DRAM capacity
#: and GraphWalker block size all shrink by this factor; flash latencies,
#: accelerator cycle times and buffer *slot counts* stay at paper values.
PAPER_SCALE = 2048


def _positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def _non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")


# ---------------------------------------------------------------------------
# Table I / III: SSD
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FTLConfig:
    """DFTL translation layer + device housekeeping (strictly opt-in).

    With ``enabled=False`` (the default) the mapping cache is never
    constructed, no background GC events are scheduled, and no flash
    operation charges translation traffic.

    Enabled, the device pays for its own translation layer: a Cached
    Mapping Table (:mod:`repro.flash.cmt`) holds ``cmt_entries`` mapping
    entries in controller DRAM; a miss reads the owning chip's
    translation page across the channel bus, and a dirty eviction writes
    it back.  Background GC runs as deterministically scheduled engine
    events whose valid-page migrations and erases occupy the same
    channel/chip resources walks and the durability journal/scrub use.
    """

    enabled: bool = False

    # -- cached mapping table ------------------------------------------------
    #: Mapping entries resident in controller DRAM (LRU-evicted).
    cmt_entries: int = 1024
    #: Bytes of one mapping entry as stored in a translation page; a
    #: 4 KB translation page then holds ``page_bytes // this`` entries.
    translation_entry_bytes: int = 8

    # -- write stream / over-provisioning -------------------------------------
    #: Pages of the circular log region engine write-back streams (walk
    #: spills, journal commits, completed-walk flushes) rotate through.
    #: Rewrites invalidate prior copies, which is what generates GC work.
    log_region_pages: int = 4096
    #: Fraction of capacity reserved as spare: shrinks the exported
    #: logical page span and raises the per-plane free-block watermark
    #: below which background GC engages.
    over_provisioning: float = 0.07

    # -- background garbage collection ----------------------------------------
    #: Simulated seconds between background GC passes; 0 keeps GC purely
    #: synchronous (the allocator's emergency path) even when enabled.
    gc_interval: float = 500e-6
    #: A plane is a GC candidate when its free blocks drop to or below
    #: ``max(this, over_provisioning * blocks_per_plane)``.
    gc_low_water_blocks: int = 2
    #: Planes collected per background pass (bounds per-event work).
    gc_planes_per_pass: int = 2

    # -- wear leveling ---------------------------------------------------------
    #: Pick the least-erased free block on allocation instead of FIFO.
    wear_leveling: bool = True

    def validate(self) -> "FTLConfig":
        if self.cmt_entries < 1:
            raise ConfigError(
                f"cmt_entries must be >= 1, got {self.cmt_entries!r}"
            )
        _positive("translation_entry_bytes", self.translation_entry_bytes)
        _positive("log_region_pages", self.log_region_pages)
        if not 0.0 <= self.over_provisioning < 0.5:
            raise ConfigError(
                "over_provisioning must be in [0, 0.5), "
                f"got {self.over_provisioning!r}"
            )
        _non_negative("gc_interval", self.gc_interval)
        if self.gc_low_water_blocks < 1:
            raise ConfigError(
                f"gc_low_water_blocks must be >= 1, "
                f"got {self.gc_low_water_blocks!r}"
            )
        if self.gc_planes_per_pass < 1:
            raise ConfigError(
                f"gc_planes_per_pass must be >= 1, "
                f"got {self.gc_planes_per_pass!r}"
            )
        return self


@dataclass
class SSDConfig:
    """SSD architectural characteristics (paper Tables I and III)."""

    channels: int = 32
    chips_per_channel: int = 4
    dies_per_chip: int = 2
    planes_per_die: int = 4
    blocks_per_plane: int = 2048
    pages_per_block: int = 64
    page_bytes: int = 4 * KB

    #: ONFI 3.1 NV-DDR2, 8-bit bus at 333 MT/s => 333 decimal MB/s.
    channel_bytes_per_sec: float = 333 * MB_D

    read_latency: float = 35 * US
    program_latency: float = 350 * US
    erase_latency: float = 2 * MS

    #: PCIe 3.0 x4: four lanes at 1 GB/s each.
    pcie_lanes: int = 4
    pcie_lane_bytes_per_sec: float = 1 * GB_D

    #: How many plane operations a chip can service concurrently.  The
    #: paper's quoted 55.8 GB/s aggregate read throughput corresponds to
    #: 4 concurrent plane reads per chip (128 chips x 4 x 4 KB / 35 us).
    max_concurrent_plane_ops_per_chip: int = 4

    #: DFTL translation layer + background GC/wear leveling (opt-in;
    #: disabled keeps the free in-memory mapping and synchronous GC).
    ftl: FTLConfig = field(default_factory=FTLConfig)

    # -- derived ------------------------------------------------------------

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def total_dies(self) -> int:
        return self.total_chips * self.dies_per_chip

    @property
    def total_planes(self) -> int:
        return self.total_dies * self.planes_per_die

    @property
    def planes_per_chip(self) -> int:
        return self.dies_per_chip * self.planes_per_die

    @property
    def pcie_bytes_per_sec(self) -> float:
        return self.pcie_lanes * self.pcie_lane_bytes_per_sec

    @property
    def aggregate_channel_bytes_per_sec(self) -> float:
        """Max aggregated channel-bus bandwidth (paper: ~10.4 GB/s)."""
        return self.channels * self.channel_bytes_per_sec

    @property
    def plane_read_bytes_per_sec(self) -> float:
        """Sustained read rate of one plane (page / read latency)."""
        return self.page_bytes / self.read_latency

    @property
    def aggregate_flash_read_bytes_per_sec(self) -> float:
        """Max aggregated chip read throughput (paper: ~55.8 GB/s).

        Limited by per-chip plane-op concurrency, not the raw plane count.
        """
        return (
            self.total_chips
            * self.max_concurrent_plane_ops_per_chip
            * self.plane_read_bytes_per_sec
        )

    def validate(self) -> "SSDConfig":
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
            "channel_bytes_per_sec",
            "read_latency",
            "program_latency",
            "erase_latency",
            "pcie_lanes",
            "pcie_lane_bytes_per_sec",
            "max_concurrent_plane_ops_per_chip",
        ):
            _positive(name, getattr(self, name))
        if self.max_concurrent_plane_ops_per_chip > self.planes_per_chip:
            raise ConfigError(
                "max_concurrent_plane_ops_per_chip "
                f"({self.max_concurrent_plane_ops_per_chip}) exceeds planes per "
                f"chip ({self.planes_per_chip})"
            )
        self.ftl.validate()
        if self.ftl.enabled and self.ftl.translation_entry_bytes > self.page_bytes:
            raise ConfigError(
                f"translation_entry_bytes ({self.ftl.translation_entry_bytes}) "
                f"exceeds page_bytes ({self.page_bytes})"
            )
        return self


@dataclass
class DRAMConfig:
    """On-board DRAM (paper Table III, right column).

    We model DRAM as a shared bandwidth resource with a fixed access
    latency rather than cycle-level DDR4 timing; the timing parameters
    from the paper are kept to *derive* that bandwidth/latency so that
    the config remains recognisably Table III.
    """

    capacity_bytes: int = 4 * GB
    frequency_mhz: float = 1600.0
    bus_width_bits: int = 64
    burst_length: int = 8
    tCL: int = 22
    tRCD: int = 22
    tRP: int = 22
    tRAS: int = 52

    @property
    def peak_bytes_per_sec(self) -> float:
        """Peak transfer rate: DDR moves data on both clock edges."""
        return self.frequency_mhz * 1e6 * 2 * (self.bus_width_bits // 8)

    @property
    def access_latency(self) -> float:
        """Closed-page random access latency (tRP + tRCD + tCL cycles)."""
        cycle = 1.0 / (self.frequency_mhz * 1e6)
        return (self.tRP + self.tRCD + self.tCL) * cycle

    def validate(self) -> "DRAMConfig":
        for name in (
            "capacity_bytes",
            "frequency_mhz",
            "bus_width_bits",
            "burst_length",
            "tCL",
            "tRCD",
            "tRP",
            "tRAS",
        ):
            _positive(name, getattr(self, name))
        if self.bus_width_bits % 8:
            raise ConfigError("bus_width_bits must be a multiple of 8")
        return self


# ---------------------------------------------------------------------------
# Table II: accelerators
# ---------------------------------------------------------------------------


@dataclass
class AcceleratorConfig:
    """One accelerator level's parameters (one column of Table II)."""

    name: str
    frequency_mhz: float
    n_updaters: int
    updater_cycle: float
    n_guiders: int
    guider_cycle: float
    subgraph_buffer_bytes: int
    walk_queues_bytes: int
    guide_buffer_bytes: int = 0
    roving_buffer_bytes: int = 0
    area_mm2: float = 0.0

    #: "The walk updater performs 5 operations to process a walk if not
    #: stalled" (Section IV-A) — cost of one unbiased hop in updater cycles.
    updater_ops_per_hop: int = 5

    def validate(self) -> "AcceleratorConfig":
        for name in (
            "frequency_mhz",
            "n_updaters",
            "updater_cycle",
            "n_guiders",
            "guider_cycle",
            "subgraph_buffer_bytes",
            "walk_queues_bytes",
            "updater_ops_per_hop",
        ):
            _positive(name, getattr(self, name))
        for name in ("guide_buffer_bytes", "roving_buffer_bytes", "area_mm2"):
            _non_negative(name, getattr(self, name))
        return self


def _chip_level() -> AcceleratorConfig:
    return AcceleratorConfig(
        name="chip",
        frequency_mhz=500.0,
        n_updaters=1,
        updater_cycle=16 * NS,
        n_guiders=1,
        guider_cycle=16 * NS,
        subgraph_buffer_bytes=1 * MB,
        walk_queues_bytes=64 * KB,
        guide_buffer_bytes=0,
        roving_buffer_bytes=32 * KB,
        area_mm2=1.30,
    )


def _channel_level() -> AcceleratorConfig:
    return AcceleratorConfig(
        name="channel",
        frequency_mhz=500.0,
        n_updaters=1,
        updater_cycle=8 * NS,
        n_guiders=4,
        guider_cycle=8 * NS,
        subgraph_buffer_bytes=2 * MB,
        walk_queues_bytes=128 * KB,
        guide_buffer_bytes=16 * KB,
        roving_buffer_bytes=8 * KB,
        area_mm2=1.84,
    )


def _board_level() -> AcceleratorConfig:
    return AcceleratorConfig(
        name="board",
        frequency_mhz=1000.0,
        n_updaters=4,
        updater_cycle=4 * NS,
        n_guiders=128,
        guider_cycle=4 * NS,
        subgraph_buffer_bytes=16 * MB,
        walk_queues_bytes=1 * MB,
        guide_buffer_bytes=128 * KB,
        roving_buffer_bytes=0,
        area_mm2=14.31,
    )


@dataclass
class AcceleratorLevels:
    """The three accelerator levels of Table II."""

    chip: AcceleratorConfig = field(default_factory=_chip_level)
    channel: AcceleratorConfig = field(default_factory=_channel_level)
    board: AcceleratorConfig = field(default_factory=_board_level)

    def validate(self) -> "AcceleratorLevels":
        self.chip.validate()
        self.channel.validate()
        self.board.validate()
        return self


# ---------------------------------------------------------------------------
# Baseline: GraphWalker
# ---------------------------------------------------------------------------


@dataclass
class GraphWalkerConfig:
    """Behavioral model of GraphWalker (ATC'20) on the paper's testbed.

    The paper runs GraphWalker on a Ryzen 7 3700X with a 970 EVO Plus
    (PCIe 3.0 x4) and artificially caps its memory at 8 GB by default
    (Section IV-A); Fig. 7 sweeps 4/8/16 GB.  Capacities here are the
    *scaled* defaults (paper value / PAPER_SCALE).
    """

    #: Memory available for caching graph blocks (scaled: 8 GB / 2048).
    memory_bytes: int = 8 * GB // PAPER_SCALE
    #: GraphWalker's coarse block size (paper quotes 1 GB blocks on CW).
    block_bytes: int = 1 * GB // PAPER_SCALE
    #: Sustained host-visible read bandwidth of the 970 EVO Plus.
    disk_read_bytes_per_sec: float = 3.0 * GB_D
    #: Fixed per-I/O software+device overhead (syscall, NVMe round trip).
    io_request_overhead: float = 80 * US
    #: Aggregate CPU walk-update rate: 8 cores doing random-access
    #: neighbor sampling (~12 M hops/s/core, typical of GraphWalker-class engines).
    cpu_hops_per_sec: float = 100e6
    #: Walks flushed to disk when a block's in-memory walk pool exceeds
    #: this many walks (GraphWalker's walk pool spill; scaled).
    walk_pool_spill: int = (1 << 20) // PAPER_SCALE * 8

    def validate(self) -> "GraphWalkerConfig":
        for name in (
            "memory_bytes",
            "block_bytes",
            "disk_read_bytes_per_sec",
            "cpu_hops_per_sec",
            "walk_pool_spill",
        ):
            _positive(name, getattr(self, name))
        _non_negative("io_request_overhead", self.io_request_overhead)
        if self.block_bytes > self.memory_bytes:
            raise ConfigError(
                f"block_bytes ({self.block_bytes}) exceeds memory_bytes "
                f"({self.memory_bytes}); GraphWalker must hold >= 1 block"
            )
        return self


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


#: Window kinds the slow-fault model understands.  ``chip-read`` and
#: ``chip-program`` inflate NAND array-op latencies on one flat chip id;
#: ``channel-bus`` degrades one channel's shared ONFI bus bandwidth.
SLOW_FAULT_KINDS = ("chip-read", "chip-program", "channel-bus")


@dataclass(frozen=True)
class SlowFaultConfig:
    """Gray-failure (latency-inflation) fault windows (strictly opt-in).

    Unlike :class:`FaultConfig`'s fail-stop faults, slow faults never
    error: operations inside an active window simply take ``factor``
    times their nominal latency — a chip in a read-retry storm, a
    GC-saturated die, a degraded bus.  Windows are fixed on the absolute
    simulated-time grid at construction (explicitly, or generated once
    from the seed), so no per-event RNG is drawn and same-seed runs stay
    byte-identical.  With ``enabled=False`` (the default) the model is
    never constructed.
    """

    enabled: bool = False

    #: Explicit windows: ``(kind, unit_id, t_start, t_end, factor)``
    #: where ``kind`` is one of :data:`SLOW_FAULT_KINDS`, ``unit_id``
    #: the flat chip id (chip kinds) or channel id (bus kind), and
    #: ``factor >= 1`` the latency multiplier while active.
    windows: tuple[tuple[str, int, float, float, float], ...] = ()

    # -- seeded window generation -------------------------------------------
    #: Number of additional windows drawn at construction from the run
    #: seed (kind, unit, start, duration, severity all seeded).
    n_random: int = 0
    #: Kinds the seeded generator may draw.
    random_kinds: tuple[str, ...] = ("chip-read", "channel-bus")
    #: Seeded window start times are uniform in ``[0, horizon)``.
    horizon: float = 400 * US
    #: Seeded window durations are uniform in ``[duration_min, duration_max]``.
    duration_min: float = 50 * US
    duration_max: float = 150 * US
    #: Seeded latency multipliers are uniform in ``[factor_min, factor_max]``.
    factor_min: float = 2.0
    factor_max: float = 8.0

    def validate(self) -> "SlowFaultConfig":
        for w in self.windows:
            if len(w) != 5:
                raise ConfigError(
                    f"slow window entries are (kind, unit, t_start, t_end, factor): {w!r}"
                )
            kind, unit, t_start, t_end, factor = w
            if kind not in SLOW_FAULT_KINDS:
                raise ConfigError(f"unknown slow-fault kind {kind!r}")
            if int(unit) != unit or unit < 0:
                raise ConfigError(f"slow window unit must be an int >= 0: {unit!r}")
            _non_negative("slow window t_start", t_start)
            if t_end <= t_start:
                raise ConfigError(f"slow window must have t_end > t_start: {w!r}")
            if factor < 1.0:
                raise ConfigError(f"slow window factor must be >= 1, got {factor!r}")
        if self.n_random < 0:
            raise ConfigError(f"n_random must be >= 0, got {self.n_random!r}")
        for kind in self.random_kinds:
            if kind not in SLOW_FAULT_KINDS:
                raise ConfigError(f"unknown slow-fault kind {kind!r}")
        if self.n_random and not self.random_kinds:
            raise ConfigError("n_random > 0 requires at least one random kind")
        _positive("horizon", self.horizon)
        _positive("duration_min", self.duration_min)
        if self.duration_max < self.duration_min:
            raise ConfigError("duration_max must be >= duration_min")
        if self.factor_min < 1.0:
            raise ConfigError(f"factor_min must be >= 1, got {self.factor_min!r}")
        if self.factor_max < self.factor_min:
            raise ConfigError("factor_max must be >= factor_min")
        return self


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection parameters (strictly opt-in).

    With ``enabled=False`` (the default) the fault layer is never
    constructed: no RNG stream is registered and every flash operation
    takes the exact same code path as before this subsystem existed, so
    results are bit-identical to a fault-free build.

    All probabilities are per *operation* (one page read, one bus data
    transfer), not per bit; pick rates high enough to matter at
    laptop-scale page counts (e.g. 1e-3..1e-1).  Latencies are seconds.
    """

    enabled: bool = False

    # -- NAND page read failures + read-retry ladder -------------------------
    #: Probability that a page read's first sense fails ECC.
    page_error_rate: float = 0.0
    #: Probability each escalating read-retry attempt (shifted Vref)
    #: succeeds; attempts are i.i.d. draws against this.
    retry_success_prob: float = 0.75
    #: Retry attempts before the read is declared exhausted.
    max_read_retries: int = 5
    #: Attempt ``k`` (1-based) costs ``read_latency * retry_backoff**k``:
    #: deeper retries use finer, slower sensing.
    retry_backoff: float = 1.5

    # -- bad-block management ------------------------------------------------
    #: When a read exhausts its retries with recovery enabled, the FTL
    #: remaps the victim block (one clean re-read + one program charge)
    #: and retires a block from the plane's free pool.
    remap_on_exhaustion: bool = True

    # -- channel CRC errors --------------------------------------------------
    #: Probability one ONFI data transfer is received corrupted.
    crc_error_rate: float = 0.0
    #: Probability each retransmission arrives clean.
    crc_retry_success_prob: float = 0.9
    #: Retransmissions before the transfer is declared exhausted.
    max_crc_retries: int = 3
    #: Pause before retransmission ``k`` (1-based) is
    #: ``crc_retry_delay * crc_backoff**(k-1)``; the data then recrosses
    #: the shared bus at full cost.
    crc_retry_delay: float = 1 * US
    crc_backoff: float = 2.0
    #: Latency of a full link reset when retransmissions run dry (the
    #: recovery path of last resort before the final clean transfer).
    crc_reset_latency: float = 100 * US

    # -- whole-chip (plane/die escalation) failures --------------------------
    #: Explicit ``(time_seconds, flat_chip_id)`` failure events, where
    #: ``flat_chip_id = channel * chips_per_channel + chip``.  Explicit
    #: scheduling (rather than a failure rate) keeps degraded-mode runs
    #: exactly reproducible and lets tests target specific chips.
    chip_failures: tuple[tuple[float, int], ...] = ()
    #: Delay before a failed chip's in-flight walks re-enter the board
    #: pipeline (failure detection + firmware failover).
    failover_latency: float = 1 * MS
    #: First load of a subgraph relocated off a failed chip costs
    #: ``rebuild_read_factor``x the normal flash read time (RAID-style
    #: reconstruction from redundancy, modeled analytically).
    rebuild_read_factor: float = 4.0

    # -- checkpoint/resume ---------------------------------------------------
    #: Simulated seconds between checkpoints; 0 disables checkpointing.
    checkpoint_interval: float = 0.0

    # -- gray failures -------------------------------------------------------
    #: Latency-inflation (slow-fault) windows; independent of ``enabled``
    #: above, so a run can be slow-but-healthy with no fail-stop faults.
    slow: SlowFaultConfig = field(default_factory=SlowFaultConfig)

    def validate(self) -> "FaultConfig":
        self.slow.validate()
        for name in ("page_error_rate", "crc_error_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("retry_success_prob", "crc_retry_success_prob"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {value!r}")
        for name in ("max_read_retries", "max_crc_retries"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        _positive("retry_backoff", self.retry_backoff)
        _positive("crc_backoff", self.crc_backoff)
        _non_negative("crc_retry_delay", self.crc_retry_delay)
        _non_negative("crc_reset_latency", self.crc_reset_latency)
        _non_negative("failover_latency", self.failover_latency)
        if self.rebuild_read_factor < 1.0:
            raise ConfigError(
                f"rebuild_read_factor must be >= 1, got {self.rebuild_read_factor!r}"
            )
        _non_negative("checkpoint_interval", self.checkpoint_interval)
        for event in self.chip_failures:
            if len(event) != 2:
                raise ConfigError(f"chip_failures entries are (time, chip): {event!r}")
            t_fail, chip = event
            _non_negative("chip_failures time", t_fail)
            if int(chip) != chip or chip < 0:
                raise ConfigError(f"chip_failures chip id must be an int >= 0: {chip!r}")
        return self


# ---------------------------------------------------------------------------
# Durability: power loss, walk journal, end-to-end integrity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityConfig:
    """Crash-consistency and data-integrity parameters (strictly opt-in).

    With ``enabled=False`` (the default) the durability layer is never
    constructed: no RNG stream is registered, no journal or scrub events
    are scheduled, and runs stay bit-identical to a build without this
    subsystem.  See DESIGN.md Section 10 for the durability model.

    Power loss is *scheduled* at runtime via
    ``FlashWalker.schedule_power_loss`` (an engine attribute, kept out of
    this config so the ``config_fingerprint`` of a crashed-and-recovered
    run matches its uninterrupted baseline); torn pages and silent
    corruption are drawn from seeded RNG streams.  All times are
    simulated seconds.
    """

    enabled: bool = False

    # -- write-ahead walk journal --------------------------------------------
    #: Simulated seconds between journal group-commit flushes; 0 disables
    #: the journal (recovery then replays from the bare checkpoint).
    journal_interval: float = 0.0
    #: Bytes of one journal record as written to flash (walk-progress
    #: delta + sequence number + CRC).  Flush cost is charged against the
    #: normal channel/NAND path so the journal competes for bandwidth.
    journal_record_bytes: int = 32

    # -- power-loss injection ------------------------------------------------
    #: Probability that a plane busy at the moment of power loss (a
    #: read, a program or an erase in flight) is counted as holding a
    #: *torn* page.  Torn pages are repaired from the RAIN parity group
    #: during recovery.
    torn_page_prob: float = 0.5

    # -- silent corruption + RAIN parity -------------------------------------
    #: Poisson rate (events per simulated second) at which a random plane
    #: develops silent corruption that passes ECC; 0 disables corruption.
    #: Detected on the next read via the end-to-end page checksum.
    silent_corruption_rate: float = 0.0
    #: Hard cap on injected corruption events per run (keeps chaotic
    #: configs bounded); 0 = unlimited.
    max_corruption_events: int = 8
    #: A plane whose repair count reaches this threshold has its active
    #: block quarantined (retired via the FTL, caches invalidated).
    quarantine_threshold: int = 2

    # -- background scrubbing ------------------------------------------------
    #: Simulated seconds between scrub passes; 0 disables scrubbing.
    #: Each pass reads ``scrub_planes_per_pass`` planes through the
    #: normal chip/channel path, so scrubbing competes for bandwidth.
    scrub_interval: float = 0.0
    #: Planes verified per scrub pass (round-robin cursor over the SSD).
    scrub_planes_per_pass: int = 4

    # -- checkpoint retention ------------------------------------------------
    #: Snapshots kept by the CheckpointManager; 0 = unbounded (the
    #: pre-durability behavior).  Journaled recovery only ever needs the
    #: latest snapshot, so long campaigns should cap this.
    checkpoint_keep_last: int = 0

    def validate(self) -> "DurabilityConfig":
        _non_negative("journal_interval", self.journal_interval)
        _positive("journal_record_bytes", self.journal_record_bytes)
        if not 0.0 <= self.torn_page_prob <= 1.0:
            raise ConfigError(
                f"torn_page_prob must be in [0, 1], got {self.torn_page_prob!r}"
            )
        _non_negative("silent_corruption_rate", self.silent_corruption_rate)
        _non_negative("max_corruption_events", self.max_corruption_events)
        if self.quarantine_threshold < 1:
            raise ConfigError(
                f"quarantine_threshold must be >= 1, got {self.quarantine_threshold!r}"
            )
        _non_negative("scrub_interval", self.scrub_interval)
        _positive("scrub_planes_per_pass", self.scrub_planes_per_pass)
        _non_negative("checkpoint_keep_last", self.checkpoint_keep_last)
        return self


# ---------------------------------------------------------------------------
# FlashWalker top-level
# ---------------------------------------------------------------------------


@dataclass
class FlashWalkerConfig:
    """Everything needed to instantiate a FlashWalker system.

    Design parameters are from Section III/IV of the paper; see DESIGN.md
    Section 4 for which values are scaled and why.
    """

    ssd: SSDConfig = field(default_factory=SSDConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    levels: AcceleratorLevels = field(default_factory=AcceleratorLevels)
    faults: FaultConfig = field(default_factory=FaultConfig)
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)

    #: Graph-block (= subgraph) size.  Paper: 256 KB (512 KB for ClueWeb);
    #: scaled to one flash page so scaled graphs still span thousands of
    #: subgraphs (DESIGN.md Section 4).
    subgraph_bytes: int = 4 * KB

    #: Bytes per vertex ID (4; the paper uses 8 for ClueWeb).
    vid_bytes: int = 4

    #: Bytes of one walk record (src + cur + hop, padded).
    walk_bytes: int = 12

    #: Subgraphs per subgraph *range* for the approximate walk search
    #: (Section III-C: "If a subgraph range has 256 subgraphs, the table
    #: can be reduced by 256x").
    range_subgraphs: int = 256

    #: Subgraphs per graph partition (Section III-D, partition walk buffer).
    partition_subgraphs: int = 2048

    #: Hot subgraphs kept resident: top-K by in-degree per channel-level
    #: accelerator and in the board-level accelerator (Section III-C/D).
    #: Scaled so hot blocks stay a small fraction of the scaled block
    #: counts, as in the paper (DESIGN.md Section 4).
    channel_hot_subgraphs: int = 2
    board_hot_subgraphs: int = 16
    #: Hot *dense vertices* whose full block list stays resident in the
    #: board subgraph buffer, so their pre-walked hops resolve at the
    #: board instead of round-tripping to a chip (hub vertices are the
    #: most "popular subgraphs" of Section III-C on skewed graphs).
    board_hot_dense_vertices: int = 2

    #: Partition-walk-buffer entry capacity in walks; 0 = auto-size from
    #: the workload (a few times the mean walks per subgraph), which
    #: preserves the paper's regime where only hot entries overflow.
    pwb_entry_walks: int = 0

    #: Eq. 1 parameters (Section III-D / IV-E).
    alpha: float = 1.2
    beta: float = 1.5

    #: topN list length per chip and access period M (Section III-D).
    top_n: int = 8
    score_update_period_m: int = 16

    #: Walk query caches: 32 total, shared 1-per-4 board guiders (Section
    #: IV-A).  The paper uses 4 KB caches against a 2 MB table; the byte
    #: size here is scaled to keep the cache:table entry ratio (~6%)
    #: against the scaled block counts.
    n_query_caches: int = 32
    query_cache_bytes: int = 128
    #: Bytes of one subgraph-mapping entry (2 end vIDs + flash addr + sum
    #: out-degree).
    mapping_entry_bytes: int = 16

    #: Concurrent binary searches the subgraph mapping table sustains
    #: (SRAM ports).  Contention among guiders on this table is what the
    #: walk query cache relieves (Section III-D).
    table_ports: int = 8

    #: Mapping-table capacities (Section IV-A).
    subgraph_table_bytes: int = 2 * MB
    walk_blocks_table_bytes: int = 128 * KB
    dense_table_bytes: int = 128 * KB

    #: Completed-walk and foreigner buffer capacities (board level).
    completed_buffer_bytes: int = 64 * KB
    foreigner_buffer_bytes: int = 64 * KB

    #: Interval at which channel-level accelerators collect roving walks
    #: from their chips ("in a fixed time interval", Section III-B).
    roving_collect_interval: float = 20 * US

    #: Optimization toggles (Fig. 9): approximate walk search + query
    #: cache (WQ), hot subgraphs (HS), subgraph scheduling by Eq. 1 (SS).
    opt_walk_query: bool = True
    opt_hot_subgraphs: bool = True
    opt_subgraph_scheduling: bool = True

    # -- derived ------------------------------------------------------------

    @property
    def query_cache_entries(self) -> int:
        return max(1, self.query_cache_bytes // self.mapping_entry_bytes)

    def chip_subgraph_slots(self) -> int:
        """Subgraph slots per chip accelerator.

        The paper's ratio is 1 MB buffer / 256 KB subgraphs = 4 slots; we
        preserve the *slot count* under scaling by deriving it from the
        paper byte values, not the scaled subgraph size.
        """
        return max(1, self.levels.chip.subgraph_buffer_bytes // (256 * KB))

    def subgraph_pages(self) -> int:
        """Flash pages occupied by one subgraph."""
        pages = -(-self.subgraph_bytes // self.ssd.page_bytes)
        return max(1, pages)

    def validate(self) -> "FlashWalkerConfig":
        self.ssd.validate()
        self.dram.validate()
        self.levels.validate()
        self.faults.validate()
        self.durability.validate()
        for name in (
            "subgraph_bytes",
            "vid_bytes",
            "walk_bytes",
            "range_subgraphs",
            "partition_subgraphs",
            "alpha",
            "beta",
            "top_n",
            "score_update_period_m",
            "table_ports",
            "n_query_caches",
            "query_cache_bytes",
            "mapping_entry_bytes",
            "subgraph_table_bytes",
            "walk_blocks_table_bytes",
            "dense_table_bytes",
            "completed_buffer_bytes",
            "foreigner_buffer_bytes",
            "roving_collect_interval",
        ):
            _positive(name, getattr(self, name))
        _non_negative("channel_hot_subgraphs", self.channel_hot_subgraphs)
        _non_negative("board_hot_subgraphs", self.board_hot_subgraphs)
        _non_negative("board_hot_dense_vertices", self.board_hot_dense_vertices)
        _non_negative("pwb_entry_walks", self.pwb_entry_walks)
        if self.walk_bytes < 2 * self.vid_bytes + 1:
            raise ConfigError(
                f"walk_bytes ({self.walk_bytes}) cannot hold src+cur+hop with "
                f"vid_bytes={self.vid_bytes}"
            )
        for _t, chip in self.faults.chip_failures:
            if chip >= self.ssd.total_chips:
                raise ConfigError(
                    f"chip_failures targets chip {chip} but the SSD only has "
                    f"{self.ssd.total_chips} chips"
                )
        return self

    def replace(self, **kwargs) -> "FlashWalkerConfig":
        """Return a copy with some top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def with_optimizations(
        self, wq: bool, hs: bool, ss: bool
    ) -> "FlashWalkerConfig":
        """Copy with the Fig. 9 optimization toggles set."""
        return self.replace(
            opt_walk_query=wq, opt_hot_subgraphs=hs, opt_subgraph_scheduling=ss
        )
