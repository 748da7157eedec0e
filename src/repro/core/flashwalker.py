"""FlashWalker: the in-storage random-walk accelerator (Sections III-IV).

Orchestrates the three accelerator levels over the SSD substrate with a
discrete-event simulation:

* **Chip level** — loads subgraphs from its own planes (no channel bus),
  drains their walk queues in vectorized batches, stages roving walks.
* **Channel level** — collects roving walks every
  ``roving_collect_interval``, updates walks landing in its hot
  subgraphs, runs the approximate range query, forwards to the board.
* **Board level** — updates walks in board-hot subgraphs, pre-walks
  dense walks, resolves destination subgraphs via the mapping table +
  query caches, maintains the partition walk buffer and foreigner /
  completed sinks, and schedules subgraphs to chips by Eq. 1.

Walk trajectories are simulated exactly; timing is request-accurate
(page reads, bus transfers, accelerator cycle budgets).  See DESIGN.md
Section 4 for the hybrid event/batch model.
"""

from __future__ import annotations

import math

import numpy as np

from ..common.config import FlashWalkerConfig
from ..common.errors import (
    ConfigError,
    InvariantViolation,
    PartitionError,
    PowerLossError,
    SimulationError,
)
from ..common.rng import RngRegistry, derive_seed
from ..durability.integrity import RNG_STREAM, IntegrityTracker
from ..durability.journal import WalkJournal
from ..faults.checkpoint import Checkpoint, CheckpointManager
from ..faults.model import FaultModel
from ..faults.slow import SlowFaultModel
from ..flash.channel import ONFI_COMMAND_BYTES
from ..flash.ssd import SSD
from ..graph.csr import CSRGraph
from ..graph.partition import GraphPartitioning, partition_graph
from ..obs.alerts import default_engine_rules
from ..obs.metrics import MetricsConfig, MetricsRegistry
from ..obs.report import config_fingerprint
from ..obs.tracer import (
    PID_BOARD,
    PID_CHANNEL_ACCEL,
    PID_CHIP_ACCEL,
    PID_FAULTS,
    PID_RUN,
    TraceConfig,
    Tracer,
)
from ..sim.engine import Entry, Simulator
from ..sim.resources import FcfsResource
from ..walks.sampling import make_sampler
from ..walks.spec import WalkSpec, start_vertices
from ..walks.state import SMALL_BATCH, WalkSet, as_records, as_walkset, concat_walks
from .advance import AdvanceContext, advance_batch
from .board_accel import BoardAccelerator
from .buffers import ForeignerStore, PartitionWalkBuffer, WalkBatch
from .channel_accel import ChannelAccelerator
from .chip_accel import ChipAccelerator
from .dense import DenseVertexTable
from .mapping import RangeTable, SubgraphMappingTable, binary_search_steps
from .metrics import RunMetrics, RunResult
from .scheduler import SubgraphScheduler

__all__ = ["FlashWalker"]

# A power cut runs before every other event at its time (the recurring
# background events' priorities are in _reset_run_state).
_PRIO_POWER_LOSS = -100

#: Fixed ``le`` bounds of the sink-flush page-count histogram
#: (telemetry only; power-of-two spacing covers group commits).
_FLUSH_PAGE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)

#: ``_hot_home`` entries of a block not resident anywhere and of a
#: board-hot block; a channel-hot block holds its channel id (>= 0).
_HOT_NONE = -2
_HOT_BOARD = -1


def _grid(interval: float):
    """First-fire rule of a recurring event on the absolute grid: the
    k-th fire lands at ``k * interval``."""
    return lambda t: (math.floor(t / interval) + 1) * interval


class FlashWalker:
    """One FlashWalker system bound to a graph.

    Parameters
    ----------
    graph:
        the input graph (weighted iff biased walks are wanted).
    config:
        hardware + design parameters; defaults are the paper's.
    seed:
        root seed for all stochastic components.
    trace:
        optional :class:`~repro.obs.TraceConfig`; when given, every run
        records span traces, utilization timelines and latency
        histograms into ``RunResult.trace``.  The tracer is a passive
        observer — enabling it never changes simulated timestamps.
    telemetry:
        optional :class:`~repro.obs.MetricsConfig`; when given, every
        run samples deterministic metrics series (and evaluates alert
        rules) into the report's ``telemetry`` section.  Same passive
        discipline as the tracer: no events, no RNG draws.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: FlashWalkerConfig | None = None,
        seed: int = 0,
        trace: TraceConfig | None = None,
        telemetry: MetricsConfig | None = None,
    ):
        self.cfg = (config or FlashWalkerConfig()).validate()
        # Hashed once: every checkpoint and report carries it.
        self.config_fingerprint = config_fingerprint(self.cfg)
        self.graph = graph
        self._seed = int(seed)
        self._trace_cfg = trace.validate() if trace is not None else None
        self._metrics_cfg = telemetry.validate() if telemetry is not None else None
        self.rngs = RngRegistry(seed)
        self.part: GraphPartitioning = partition_graph(
            graph, self.cfg.subgraph_bytes, self.cfg.vid_bytes
        )
        self.ssd = SSD(self.cfg.ssd, self.cfg.dram)
        # Place every graph block wholly inside one chip, striped.
        placement = self.ssd.ftl.place_striped(
            self.part.num_blocks, self.cfg.subgraph_pages()
        )
        cpc = self.cfg.ssd.chips_per_channel
        self.block_chip = placement[:, 0] * cpc + placement[:, 1]  # flat chip id
        # Pristine placement; chip failures remap block_chip per run.
        self._block_chip0 = self.block_chip.copy()
        if self.ssd.dftl is not None:
            # The engine's write-back streams (sink flushes, journal
            # commits, spills) rotate through a circular log region above
            # the placed subgraph pages; wrapping it overwrites old log
            # pages, which is what generates the invalid pages background
            # GC reclaims.
            log_base = self.part.num_blocks * self.cfg.subgraph_pages()
            span = self.ssd.ftl.total_pages - log_base
            if span < 1:
                raise ConfigError(
                    "DFTL log region is empty: the graph's "
                    f"{log_base} placed pages fill the device's "
                    f"{self.ssd.ftl.total_pages} exported pages — lower "
                    "ftl.over_provisioning or enlarge the device"
                )
            self.ssd.dftl.set_log_region(
                log_base, min(self.cfg.ssd.ftl.log_region_pages, span)
            )
        # Accelerators.
        slots = self.cfg.chip_subgraph_slots()
        self.chips = [
            ChipAccelerator(
                i, i // cpc, i % cpc, self.cfg.levels.chip, slots, self.cfg.walk_bytes
            )
            for i in range(self.cfg.ssd.total_chips)
        ]
        self.channels = [
            ChannelAccelerator(c, self.cfg.levels.channel, self.cfg.walk_bytes)
            for c in range(self.cfg.ssd.channels)
        ]
        self.dense_table = DenseVertexTable(self.part)
        self.board = BoardAccelerator(self.cfg, self.dense_table)
        self._assign_hot_blocks()
        self.n_partitions = self.part.num_partitions(self.cfg.partition_subgraphs)
        # Partition-walk-buffer entry capacities are sized per run (they
        # depend on the walk count); see run().
        self.entry_capacity = 0
        self.dense_entry_capacity = 0
        # Run state (reset per run()).
        self.sim: Simulator | None = None
        self.metrics: RunMetrics | None = None
        # Survives _reset_run_state so a crashed run's snapshot is still
        # there when resume() re-initializes the engine.
        self._checkpoints = CheckpointManager(
            keep_last=self.cfg.durability.checkpoint_keep_last
        )
        # Power-loss injection schedule (simulated times).  A runtime
        # attribute rather than config so a crash-scheduled engine keeps
        # the same config_fingerprint as its uninterrupted baseline, and
        # restore_checkpoint's fingerprint check accepts its snapshots.
        self.power_loss_times: tuple[float, ...] = ()
        # Crashes already fired this campaign.  NOT reset by
        # _reset_run_state: a restore must not re-fire the crash that
        # triggered the recovery it is part of.
        self._crashes_fired = 0
        self._last_power_loss: dict | None = None
        self._reset_run_state()

    # ------------------------------------------------------------------ setup

    def _assign_hot_blocks(self) -> None:
        """Pick top in-degree blocks for board/channel residency."""
        in_deg = self.graph.in_degrees()
        cs = np.concatenate([[0], np.cumsum(in_deg)])
        blk_indeg = cs[self.part.block_hi + 1] - cs[self.part.block_lo]
        blk_indeg = blk_indeg.astype(np.float64)
        # Dense-vertex slices are handled via hot dense vertices instead.
        blk_indeg[self.part.is_dense_block] = -1.0
        # Top dense vertices by in-degree get their whole block list
        # resident at the board; their pre-walked hops resolve there.
        # This is part of the *pre-walking* machinery (the board owns the
        # dense-vertices table regardless), so it is independent of the
        # Fig. 9 hot-subgraph toggle.
        dense_vs = np.fromiter(
            self.part.dense_meta, dtype=np.int64, count=len(self.part.dense_meta)
        )
        if dense_vs.size and self.cfg.board_hot_dense_vertices > 0:
            order_d = np.argsort(in_deg[dense_vs], kind="stable")[::-1]
            hot_dense = dense_vs[order_d[: self.cfg.board_hot_dense_vertices]].tolist()
        else:
            hot_dense = []
        self._hot_dense = frozenset(hot_dense)
        # Where each block is hot: nowhere, at the board, or at the
        # channel whose id it holds.  Set once; the direct and collect
        # paths test a walk's block with one lookup.
        home = np.full(self.part.num_blocks, _HOT_NONE, dtype=np.int64)
        self._hot_home = home
        if not self.cfg.opt_hot_subgraphs:
            self.board.set_hot_blocks([])
            for ch in self.channels:
                ch.set_hot_blocks([])
            return
        k_board = min(self.cfg.board_hot_subgraphs, self.part.num_blocks)
        order = np.argsort(blk_indeg, kind="stable")[::-1]
        board_hot = [int(b) for b in order[:k_board] if blk_indeg[b] > 0]
        self.board.set_hot_blocks(board_hot)
        home[board_hot] = _HOT_BOARD
        cpc = self.cfg.ssd.chips_per_channel
        block_channel = self.block_chip // cpc
        taken = set(board_hot)
        for ch in self.channels:
            mine = np.flatnonzero(block_channel == ch.channel_id)
            if mine.size == 0:
                ch.set_hot_blocks([])
                continue
            sub = mine[np.argsort(blk_indeg[mine], kind="stable")[::-1]]
            hot = [
                int(b)
                for b in sub
                if blk_indeg[b] > 0 and int(b) not in taken
            ][: self.cfg.channel_hot_subgraphs]
            ch.set_hot_blocks(hot)
            home[hot] = ch.channel_id
        # A walk at a dense vertex must pre-walk, never update in a hot
        # block.  The lookup needs no dense test for that: a dense
        # vertex's block is one of its own dense blocks, and those have
        # in-degree -1 above, so none is hot.
        if self.part.is_dense_block[home != _HOT_NONE].any():
            raise InvariantViolation("a dense block was chosen as hot")

    def _reset_run_state(self) -> None:
        self.sim = Simulator()
        self.metrics = RunMetrics()
        # Tracing is per run: a fresh Tracer so back-to-back runs never
        # mix spans.  The bound clock reads self.sim dynamically, so it
        # survives the engine re-creation on resume().
        tcfg = self._trace_cfg
        if tcfg is not None:
            self.tracer = Tracer(tcfg)
            self.tracer.bind_clock(lambda: self.sim.now)
        else:
            self.tracer = None
        # Metrics mirror the tracer's lifecycle: a fresh registry per
        # run, clocked off self.sim so it survives engine re-creation.
        mcfg = self._metrics_cfg
        if mcfg is not None:
            self.telemetry = MetricsRegistry(mcfg)
            self.telemetry.bind_clock(lambda: self.sim.now)
            self.telemetry.add_rules(default_engine_rules())
        else:
            self.telemetry = None
        self.metrics.telemetry = self.telemetry
        self.ssd.attach_tracer(self.tracer)
        self.board.tracer = self.tracer
        self.scheduler: SubgraphScheduler | None = None
        self.pwb: PartitionWalkBuffer | None = None
        self.mapping: SubgraphMappingTable | None = None
        self.foreign = ForeignerStore(max(1, self.n_partitions))
        self.current_partition = -1
        self.total_walks = 0
        self.completed_walks = 0
        self.in_transit = 0
        self._board_pipe = FcfsResource("board.direct", 1)
        self._flush_cursor = 0
        self._finals: list[WalkSet] | None = None
        self._done = False
        # Optional completion observer fn(t, walks) used by the service
        # layer (repro.service) to attribute finished walks to queries;
        # ``walks`` is records or a WalkSet (see repro.walks.state).
        # None in batch runs: the default path never consults it beyond
        # this one is-None check, keeping default behavior bit-identical.
        self._on_completed = None
        # Fault-injection state.  Strictly opt-in: with faults disabled
        # no fault model exists, no RNG stream is registered, and every
        # hot path sees fault_model is None.
        fcfg = self.cfg.faults
        self.block_chip = self._block_chip0.copy()
        self.fault_model = (
            FaultModel(fcfg, self.rngs.fresh("faults")) if fcfg.enabled else None
        )
        if self.fault_model is not None:
            self.fault_model.tracer = self.tracer
            self.fault_model.telemetry = self.telemetry
        self.ssd.attach_fault_model(self.fault_model)
        # Gray-failure (slow-fault) layer, same opt-in pattern.  Windows
        # are precomputed from the seed at construction — the model owns
        # no registry stream, so checkpoints have only counters to carry
        # and enabling it perturbs no other subsystem's RNG.
        scfg = fcfg.slow
        self.slow_model = (
            SlowFaultModel(
                scfg,
                self._seed,
                n_chips=self.cfg.ssd.total_chips,
                n_channels=self.cfg.ssd.channels,
            )
            if scfg.enabled
            else None
        )
        self.ssd.attach_slow_model(self.slow_model)
        self._rebuilding_blocks: set[int] = set()
        self._board_inflight = 0
        self._draining = False
        # Durability layer (journal + integrity), same opt-in pattern as
        # faults: disabled leaves every hot path at one is-None check.
        dcfg = self.cfg.durability
        if dcfg.enabled:
            self.journal = (
                WalkJournal(dcfg.journal_record_bytes)
                if dcfg.journal_interval > 0
                else None
            )
            if dcfg.silent_corruption_rate > 0:
                # Register the arrival stream so checkpoints capture it.
                self.rngs.fresh(RNG_STREAM)
            self.integrity = IntegrityTracker(
                dcfg, self.ssd, self.metrics, self.rngs
            )
            self.integrity.on_quarantine = self._quarantine_plane
            self.integrity.telemetry = self.telemetry
            self.ssd.attach_integrity(self.integrity)
        else:
            self.journal = None
            self.integrity = None
            self.ssd.attach_integrity(None)
        # Recurring background events by name: (priority, first-fire
        # rule, pass).  ``first(t)`` gives the first fire time when none
        # is stored (None: do not arm); a pass at ``t`` returns its next
        # fire time (None: stop).  Journal flushes and FTL GC run on an
        # absolute grid, so an uninterrupted run and a resumed one share
        # fire times.  The priorities are negative so these events
        # precede the engine's priority-0 events at equal times in both
        # the original and a resumed timeline (re-armed sequence numbers
        # differ after a restore, so cross-type order must never fall
        # back to seq); distinct values order them among themselves.
        # FTL GC belongs to the DFTL layer: the device housekeeps
        # whether or not the journal/scrub stack is on.
        recurring = {}
        if dcfg.enabled:
            if self.journal is not None:
                recurring["journal"] = (
                    -20, _grid(dcfg.journal_interval), self._journal_flush
                )
            if dcfg.silent_corruption_rate > 0:
                recurring["corrupt"] = (
                    -15, self._corruption_due, self._corruption_arrival
                )
            if dcfg.scrub_interval > 0:
                recurring["scrub"] = (
                    -10, lambda t: t + dcfg.scrub_interval, self._scrub_pass
                )
        if self.ssd.dftl is not None:
            self.ssd.dftl.telemetry = self.telemetry
            if self.ssd.ftl.background_gc:
                recurring["ftlgc"] = (
                    -5, _grid(self.cfg.ssd.ftl.gc_interval), self._ftl_gc_pass
                )
        self._recurring = recurring
        # Next absolute fire time per recurring event (a restore
        # overwrites them with the snapshot's) and the armed events;
        # power cuts are keyed by their index in power_loss_times.
        self._fire_times: dict[str, float | None] = {}
        self._armed: dict[str, Entry] = {}
        self._power_cuts: dict[int, Entry] = {}
        # Extra-state hook pair for layers above the engine (the query
        # service): _checkpoint_extra() is packed into snapshots, and a
        # restore leaves the packed dict in _restored_extra.
        self._checkpoint_extra = None
        self._restored_extra = None
        self._ckpt_interval = (
            fcfg.checkpoint_interval if (fcfg.enabled or dcfg.enabled) else 0.0
        )
        self._next_checkpoint = (
            self._ckpt_interval if self._ckpt_interval > 0 else math.inf
        )
        for chip in self.chips:
            chip.loaded = []
            chip.busy = False
            chip.failed = False
            chip.pending_rove = []
            chip.pending_rove_count = 0
            chip.pending_completed = 0
            chip.tracer = self.tracer
        for ch in self.channels:
            ch.collect_scheduled = False
            ch.tracer = self.tracer

    # ------------------------------------------------------------------- run

    def run(
        self,
        num_walks: int | None = None,
        spec: WalkSpec | None = None,
        starts: np.ndarray | None = None,
        max_events: int | None = None,
        record_finals: bool = False,
    ) -> RunResult:
        """Execute a random-walk workload to completion.

        Either ``num_walks`` (uniform random starts) or an explicit
        ``starts`` array must be given.  With ``record_finals`` the
        result carries every completed walk's (src, final vertex) pair —
        the raw material of PPR and endpoint-sampling applications.
        Returns a :class:`RunResult`.
        """
        if starts is None:
            if num_walks is None or num_walks < 1:
                raise SimulationError("need num_walks >= 1 or explicit starts")
            starts = start_vertices(
                self.graph, num_walks, self.rngs.fresh("starts")
            )
        else:
            starts = np.asarray(starts, dtype=np.int64)
            if starts.size == 0:
                raise SimulationError("empty starts array")
        self._open_session(spec, int(starts.size), starts)
        if record_finals:
            self._finals = []
        self.sim.run(max_events=max_events)
        return self._finalize_run()

    def _open_session(
        self, spec: WalkSpec | None, n_walks: int, starts: np.ndarray | None = None
    ) -> float:
        """The one setup path of :meth:`run` and :meth:`start_session`.

        Resets the run state, sizes the partition-walk-buffer entries
        for ``n_walks`` walks, preloads the hot blocks, installs
        partition 0, boards ``starts`` (if given) and arms the scheduled
        chip failures and background events.  Returns the simulated
        time at which the system is ready.
        """
        self.spec = (spec or WalkSpec()).validate(self.graph)
        self._reset_run_state()
        self._checkpoints.clear()
        self._crashes_fired = 0
        self._last_power_loss = None
        sampler = make_sampler(self.graph, self.spec.biased)
        self.ctx = AdvanceContext.build(self.graph, self.part, self.spec, sampler)
        if self.cfg.pwb_entry_walks > 0:
            self.entry_capacity = self.cfg.pwb_entry_walks
        else:
            # The paper's DRAM budget gives each entry several times the
            # mean walks per subgraph of headroom; 16x keeps overflow an
            # event of the hottest entries only, matching Fig. 8's
            # near-zero write curve.
            mean = max(1, n_walks) / max(1, self.part.num_blocks)
            self.entry_capacity = max(16, math.ceil(16 * mean))
        self.dense_entry_capacity = max(
            self.entry_capacity + 1, math.ceil(self.entry_capacity * self.cfg.beta)
        )
        # Preload hot subgraphs (flash reads + channel transfers).
        t0 = self._preload_hot_blocks(0.0)
        self._install_partition(0, t0)
        if starts is not None:
            self.total_walks = self.in_transit = int(starts.size)
            walks = WalkSet.start(starts, self.spec.length)
            # Queued ahead of the chip failures: equal-time events run
            # in the order they were queued.
            self.sim.at(t0, self._board_direct, walks, False)
        self._arm_chip_failures()
        self._arm_background()
        return t0

    # ------------------------------------------------------- service sessions

    def start_session(
        self, spec: WalkSpec | None = None, *, expected_walks: int = 0
    ) -> float:
        """Prepare the engine for an *open-ended* walk session.

        The same setup as :meth:`run` — state reset, entry-capacity
        sizing, hot-block preload, first partition install, scheduled
        chip failures — but boards no walks: the service layer
        (:mod:`repro.service`) injects them over time with
        :meth:`inject_walks` while driving ``self.sim`` itself.
        ``expected_walks`` sizes the partition-walk-buffer entries the
        way a batch run's ``num_walks`` would.  Returns the simulated
        time at which the system is ready (hot blocks preloaded).
        """
        return self._open_session(spec, int(expected_walks))

    def inject_walks(self, walks: WalkSet) -> None:
        """Board new walks mid-session at the current simulated time.

        Must be called from inside a simulator event (the service
        layer's dispatch events); the walks enter through the normal
        board-direct path and are accounted exactly like a batch run's.
        """
        n = len(walks)
        if n == 0:
            return
        if walks.hop.size and int(walks.hop.max()) > self.spec.length:
            raise SimulationError(
                f"injected walk length {int(walks.hop.max())} exceeds the "
                f"session spec length {self.spec.length}"
            )
        self.total_walks += n
        self.in_transit += n
        self._done = False
        # Background events were cancelled when the session last went
        # idle (_done); new work re-arms them.
        self._arm_background()
        self._board_direct(walks, scoped=False)

    def _finalize_run(self) -> RunResult:
        """Shared completion path of run() and resume()."""
        if self.completed_walks != self.total_walks:
            raise SimulationError(
                f"run ended with {self.completed_walks}/{self.total_walks} "
                "walks completed (event starvation?)"
            )
        # Final sink flush.
        tail = self.board.drain_sinks()
        end = self.sim.now
        if tail:
            end = self._flush_to_flash(self.sim.now, tail)
        result = self.metrics.finalize(end, self.total_walks)
        if self.scheduler is not None:
            result.counters["sched_topn_refreshes"] = float(
                self.scheduler.topn_refreshes
            )
        if self.fault_model is not None:
            for name, value in self.fault_model.stats().items():
                result.counters[name] = float(value)
        if self.slow_model is not None:
            for name, value in self.slow_model.stats().items():
                result.counters[name] = float(value)
        if self._finals is not None:
            finals = WalkSet.concat(self._finals)
            result.counters["finals_recorded"] = float(len(finals))
            result.finals = finals
        result.seed = self._seed
        result.config_fingerprint = self.config_fingerprint
        dftl = self.ssd.dftl
        if dftl is not None:
            result.ftl = dftl.stats(self.ssd.ftl)
            result.counters["ftl_cmt_hits"] = float(dftl.cmt.hits)
            result.counters["ftl_cmt_misses"] = float(dftl.cmt.misses)
            result.counters["ftl_translation_page_reads"] = float(
                dftl.translation_page_reads
            )
            result.counters["ftl_translation_page_writes"] = float(
                dftl.translation_page_writes
            )
            result.counters["ftl_gc_background_runs"] = float(
                self.ssd.ftl.gc_background_runs
            )
            result.counters["ftl_gc_moved_pages"] = float(
                self.ssd.ftl.gc_moved_pages
            )
        if self.cfg.durability.enabled:
            result.durability = self._durability_section()
        if self.telemetry is not None:
            result.telemetry = self.telemetry.section(end)
        if self.tracer is not None:
            self.tracer.instant("run", PID_RUN, 0, "run_end", end)
            result.trace = self.tracer
        return result

    # --------------------------------------------------------- partition setup

    def _preload_hot_blocks(self, t: float) -> float:
        """Read board/channel hot subgraphs from flash at run start."""
        done = t
        pages = self.cfg.subgraph_pages()
        all_hot = list(self.board.hot_blocks)
        for ch in self.channels:
            all_hot.extend(ch.hot_blocks)
        for v in sorted(self._hot_dense):
            meta = self.part.dense_meta[v]
            all_hot.extend(range(meta.first_block, meta.first_block + meta.n_blocks))
        for block in all_hot:
            chip_flat = int(self.block_chip[block])
            chip_hw = self.ssd.chip_flat(chip_flat)
            t_read = chip_hw.read_pages_striped(t, pages)
            nbytes = pages * self.cfg.ssd.page_bytes
            self.metrics.record_flash_read(t, nbytes, t_read)
            ch_hw = self.ssd.channel(chip_flat // self.cfg.ssd.chips_per_channel)
            t_bus = ch_hw.transfer_data(t, nbytes)
            self._record_bus(ch_hw.bus, t, nbytes, t_bus)
            done = max(done, t_read, t_bus)
        tr = self.tracer
        if tr is not None and all_hot:
            tr.span("run", PID_RUN, 0, "preload_hot_blocks", t, done,
                    args={"blocks": len(all_hot)})
        return done

    def _install_partition(self, pid: int, t: float) -> None:
        if not 0 <= pid < self.n_partitions:
            raise SimulationError(f"partition {pid} out of range")
        first, last = self._build_partition(pid)
        tr = self.tracer
        if tr is not None:
            tr.instant("run", PID_RUN, 0, "install_partition", t,
                       args={"partition": pid, "first_block": first,
                             "last_block": last})
        # Mapping entries stream from DRAM into the board SRAM.
        entry_bytes = self.mapping.n_entries * self.cfg.mapping_entry_bytes
        self.ssd.dram.read(t, entry_bytes)
        self.metrics.record_dram(t, entry_bytes)

    def _build_partition(self, pid: int) -> tuple[int, int]:
        """Build partition ``pid``'s mapping table, range tables, empty
        scheduler and empty walk buffer; returns its block range.

        Charges nothing: :meth:`_install_partition` adds the DRAM
        mapping stream, and a checkpoint restore fills the scheduler
        and buffer from the snapshot.
        """
        self.current_partition = pid
        first, last = self.part.partition_block_range(
            pid, self.cfg.partition_subgraphs
        )
        self.mapping = SubgraphMappingTable(self.part, first, last)
        self.board.set_mapping(self.mapping)
        table = (
            RangeTable(self.part, first, last, self.cfg.range_subgraphs)
            if self.cfg.opt_walk_query
            else None
        )
        for ch in self.channels:
            ch.set_range_table(table)
        self.scheduler = SubgraphScheduler(
            block_chip=self.block_chip,
            is_dense_block=self.part.is_dense_block,
            first_block=first,
            last_block=last,
            n_chips=len(self.chips),
            alpha=self.cfg.alpha,
            beta=self.cfg.beta,
            top_n=self.cfg.top_n,
            update_period_m=self.cfg.score_update_period_m,
            use_scores=self.cfg.opt_subgraph_scheduling,
        )
        self.scheduler.tracer = self.tracer
        self.pwb = PartitionWalkBuffer(
            first,
            last,
            self.entry_capacity,
            self.dense_entry_capacity,
            self.part.is_dense_block,
        )
        return first, last

    def _switch_partition(self, t: float) -> None:
        """Move to the next partition holding foreigner walks."""
        pending = self.foreign.partitions_with_walks()
        if pending.size == 0:
            raise SimulationError("partition switch with no pending walks")
        # Next partition in cyclic order after the current one.
        later = pending[pending > self.current_partition]
        pid = int(later[0]) if later.size else int(pending[0])
        self.metrics.partition_switches.add()
        self._install_partition(pid, t)
        walks = self.foreign.drain(pid)
        self.in_transit += len(walks)
        # Foreigner walks come back from flash (scattered pages).
        nbytes = len(walks) * self.cfg.walk_bytes
        t_ready = self._read_scattered(t, nbytes)
        tr = self.tracer
        if tr is not None:
            tr.span("run", PID_RUN, 0, "partition_switch", t, t_ready,
                    args={"partition": pid, "walks": len(walks)})
        self.sim.at(t_ready, self._board_direct, walks, False)


    def _record_bus(self, bus, t_issue: float, nbytes: int, t_end: float) -> None:
        """Attribute channel-bus bytes over the transfer's *occupancy*
        window (its tail of duration nbytes/rate ending at t_end), not
        from issue time: queued transfers would otherwise overlap in the
        timeline and exceed the physical bus rate."""
        duration = nbytes / bus.bytes_per_sec
        start = max(t_issue, t_end - duration)
        self.metrics.record_channel(start, nbytes, t_end)

    # ------------------------------------------------------------ board level

    def _board_direct(
        self, walks: WalkSet | list[tuple[int, int, int]], scoped: bool
    ) -> None:
        """Direct a batch of roving/new walks at the board level.

        Batches of at most :data:`~repro.walks.state.SMALL_BATCH` walks
        go to :meth:`_board_direct_scalar` as records, larger ones to
        :meth:`_board_direct_vector` as a WalkSet.  Both take the same
        RNG draws, add the same ``busy`` terms in the same order and
        raise the same events in the same order, so the choice never
        changes a simulated result.
        """
        t = self.sim.now
        n = len(walks)
        if n == 0:
            self._service_barriers(t)
            return
        if n <= SMALL_BATCH:
            busy = self._board_direct_scalar(t, as_records(walks), scoped)
        else:
            busy = self._board_direct_vector(t, as_walkset(walks), scoped)
        self._finish_board_batch(t, busy)

    def _board_direct_vector(self, t: float, walks: WalkSet, scoped: bool) -> float:
        """Direct a batch as walk arrays with NumPy; returns its busy time."""
        busy = 0.0
        normal_parts: list[WalkSet] = []
        # Walks may loop through the board pipeline: a hot-subgraph update
        # or a hot-dense-vertex resolution moves them to a new vertex that
        # needs re-classification.  Each pass consumes >= 1 hop, so the
        # loop is bounded by the walk length.
        for _ in range(self.spec.length + 2):
            if len(walks) == 0:
                break
            # 1. Update walks landing in board-resident hot subgraphs.
            if self.board.hot_blocks:
                in_hot = (
                    self._hot_home[self.part.block_of_vertex(walks.cur)]
                    == _HOT_BOARD
                )
                if in_hot.any():
                    hot_walks, walks = walks.split(in_hot)
                    roving, busy = self._board_hot_update(t, hot_walks, busy)
                    walks = WalkSet.concat([walks, roving])
            if len(walks) == 0:
                break
            # 2. Dense-vertex classification (bloom + hash).
            probes_before = self.dense_table.hash_probes
            dense_mask = self.dense_table.classify(walks.cur)
            busy += self.board.dense_check_time(
                len(walks), self.dense_table.hash_probes - probes_before
            )
            dense_walks, normal = walks.split(dense_mask)
            normal_parts.append(normal)
            walks = WalkSet.empty()
            # 3. Pre-walk dense walks to a specific graph block.
            if len(dense_walks):
                rest, busy = self._pre_walk(t, dense_walks.records(), busy)
                walks = WalkSet.from_records(rest)
        normal = WalkSet.concat(normal_parts)
        # 4. Foreigner detection for normal walks.
        inside = self.mapping.contains_vertices(normal.cur)
        if (~inside).any():
            foreign_walks = normal.select(~inside)
            busy += self._foreign_search_time(len(foreign_walks))
            self._store_foreigners(t, foreign_walks, target_blocks=None)
            normal = normal.select(inside)
        # 5. Walk query for the rest + insert into the partition buffer.
        if len(normal):
            blocks, busy = self._walk_query(normal.cur, scoped, busy)
            self._insert_pwb(t, normal, blocks, pre_edge=None)
        return busy

    def _board_direct_scalar(
        self, t: float, recs: list[tuple[int, int, int]], scoped: bool
    ) -> float:
        """:meth:`_board_direct_vector` on ``(src, cur, hop)`` records of
        Python ints: the hot-block test, the hot update, the dense
        split, the pre-walk, the partition span check, the block lookup
        and the buffer's group-by-block are loops over the records, in
        the same order on the same walks.  Foreigners become a WalkSet
        where they leave for the foreigner store."""
        busy = 0.0
        normal: list[tuple[int, int, int]] = []  # every pass's, in order
        for _ in range(self.spec.length + 2):
            if not recs:
                break
            if self.board.hot_blocks:
                in_hot = self._hot_mask([r[1] for r in recs], _HOT_BOARD)
                if True in in_hot:
                    hot = [r for r, x in zip(recs, in_hot) if x]
                    roving, busy = self._board_hot_update(t, hot, busy)
                    recs = [r for r, x in zip(recs, in_hot) if not x] + roving
            if not recs:
                break
            probes_before = self.dense_table.hash_probes
            is_dense = self.dense_table.classify([r[1] for r in recs])
            busy += self.board.dense_check_time(
                len(recs), self.dense_table.hash_probes - probes_before
            )
            dense = []
            for r, d in zip(recs, is_dense):
                (dense if d else normal).append(r)
            recs = []
            if dense:
                recs, busy = self._pre_walk(t, dense, busy)
        lo, hi = self.mapping.vertex_lo, self.mapping.vertex_hi
        inside = [lo <= r[1] <= hi for r in normal]
        if False in inside:
            foreign = [r for r, x in zip(normal, inside) if not x]
            busy += self._foreign_search_time(len(foreign))
            self._store_foreigners(
                t, WalkSet.from_records(foreign), target_blocks=None
            )
            normal = [r for r, x in zip(normal, inside) if x]
        if normal:
            blocks, busy = self._walk_query([r[1] for r in normal], scoped, busy)
            self._insert_pwb_scalar(t, normal, blocks)
        return busy

    def _hot_mask(self, cur: list[int], home: int) -> list[bool]:
        """Which vertices of ``cur`` lie in a block hot at ``home``: the
        ``_hot_home`` gather on Python ints, with the same range check
        and error as :meth:`GraphPartitioning.block_of_vertex`."""
        nv = self.graph.num_vertices
        block_of = self.part.vertex_block.item
        where = self._hot_home.item
        mask = []
        for v in cur:
            if not 0 <= v < nv:
                raise PartitionError(f"vertex out of range [0, {nv})")
            mask.append(where(block_of(v)) == home)
        return mask

    def _board_hot_update(self, t: float, hot_walks, busy: float):
        """Advance walks in board-hot blocks (step 1); returns the walks
        that leave them, in ``hot_walks``'s form (records or a WalkSet),
        and ``busy`` plus the update time."""
        m = self.metrics
        res = advance_batch(
            self.ctx,
            WalkBatch(hot_walks),
            self.board.hot_blocks,
            self.rngs.stream("board"),
        )
        busy += self.board.batch_time(res)
        m.hops.add(res.hops)
        m.hot_hits_board.add(len(hot_walks))
        if res.n_completed:
            self._complete_walks(t, res.n_completed, sink="board", walks=res.completed)
        return res.roving, busy

    def _pre_walk(
        self, t: float, dense: list[tuple[int, int, int]], busy: float
    ) -> tuple[list[tuple[int, int, int]], float]:
        """Pre-walk dense walks to a graph block (step 3).

        Walks at hot dense vertices take their hop here; the others go
        to their block's buffer entry, or to the foreigner store when
        the block lies past the partition.  Returns the walks that hop
        on, as records, and ``busy`` plus the board time.
        """
        m = self.metrics
        pw = self.dense_table.pre_walk([r[1] for r in dense], self.rngs.stream("prewalk"))
        m.pre_walks.add(len(dense))
        blocks, edges = pw.block, pw.edge_offset
        edge_lo = self.part.block_edge_lo.item
        survivors: list[tuple[int, int, int]] = []
        # Hot dense vertices: every slice is board-resident, so the
        # pre-walked hop resolves right here.
        hot = self._hot_dense
        at_hot = [r[1] in hot for r in dense] if hot else []
        if True in at_hot:
            offset = self.graph.offsets.item
            edge = self.graph.edges.item
            moved = [
                (r[0], edge(offset(r[1]) + e + edge_lo(b)), r[2] - 1)
                for r, b, e, x in zip(dense, blocks, edges, at_hot) if x
            ]
            n_hot = len(moved)
            acc = self.cfg.levels.board
            busy += (
                n_hot * acc.updater_ops_per_hop * acc.updater_cycle
                / acc.n_updaters
            )
            m.hops.add(n_hot)
            m.hot_hits_board.add(n_hot)
            done = [r[2] == 0 for r in moved]
            if self.spec.stop_probability > 0:
                stop = self.spec.apply_stop_probability(
                    np.array([r[2] for r in moved], dtype=np.int64),
                    self.rngs.stream("board"),
                )
                done = [d or s for d, s in zip(done, stop.tolist())]
            finished = [r for r, d in zip(moved, done) if d]
            if finished:
                self._complete_walks(t, len(finished), sink="board", walks=finished)
            survivors = [r for r, d in zip(moved, done) if not d]
            dense = [r for r, x in zip(dense, at_hot) if not x]
            blocks = [b for b, x in zip(blocks, at_hot) if not x]
            edges = [e for e, x in zip(edges, at_hot) if not x]
        first, last = self.mapping.first_block, self.mapping.last_block
        in_part = [first <= b <= last for b in blocks]
        if True in in_part:
            self._insert_pwb_scalar(
                t,
                [r for r, x in zip(dense, in_part) if x],
                [b for b, x in zip(blocks, in_part) if x],
                [e + edge_lo(b) for b, e, x in zip(blocks, edges, in_part) if x],
            )
        if False in in_part:
            # Dense walk bound for another partition: store as a plain
            # foreigner (re-pre-walked there — an identical uniform
            # redraw).
            self._store_foreigners(
                t,
                WalkSet.from_records([r for r, x in zip(dense, in_part) if not x]),
                target_blocks=np.array(
                    [b for b, x in zip(blocks, in_part) if not x], dtype=np.int64
                ),
            )
        return survivors, busy

    def _foreign_search_time(self, n_walks: int) -> float:
        """Board time to locate ``n_walks`` foreigners' partitions: a
        global range search (the coarse table spans the whole graph)."""
        steps = binary_search_steps(
            max(1, -(-self.part.num_blocks // self.cfg.range_subgraphs))
        )
        return (
            n_walks
            * steps
            * self.cfg.levels.board.guider_cycle
            / self.cfg.levels.board.n_guiders
        )

    def _walk_query(self, cur, scoped: bool, busy: float):
        """Resolve the walks at ``cur`` (an array or a list) to their
        blocks through the mapping table and query caches (step 5).
        Returns the blocks, of ``cur``'s kind, and ``busy`` plus the
        query time."""
        m = self.metrics
        wq = scoped and self.cfg.opt_walk_query
        blocks, _ = self.mapping.lookup(
            cur, scope_entries=self.cfg.range_subgraphs if wq else None
        )
        qtime, hits, misses, steps_total = self.board.query_and_direct(blocks, wq)
        busy += qtime
        m.queries.add(len(cur))
        m.query_steps.add(steps_total)
        m.cache_hits.add(hits)
        m.cache_misses.add(misses)
        return blocks, busy

    def _finish_board_batch(self, t: float, busy: float) -> None:
        m = self.metrics
        m.board_busy.add(busy)
        t_done = self._board_pipe.acquire_for(t, busy)
        tr = self.tracer
        if tr is not None and busy > 0:
            # The pipe is FCFS: the batch occupies its tail window.
            tr.span("accel", PID_BOARD, 0, "board_batch", t_done - busy, t_done)
            tr.busy("board_accel", t_done - busy, t_done)
        if t_done > t:
            self._board_inflight += 1
            self.sim.at(t_done, self._board_batch_done)
        else:
            self._after_board_batch()

    def _board_batch_done(self) -> None:
        self._board_inflight -= 1
        self._after_board_batch()

    def _after_board_batch(self) -> None:
        t = self.sim.now
        self._kick_chips(t)
        self._service_barriers(t)

    def _insert_pwb(
        self,
        t: float,
        walks: WalkSet,
        blocks: np.ndarray,
        pre_edge: np.ndarray | None,
    ) -> None:
        """Insert directed walks into partition-walk-buffer entries."""
        n = len(walks)
        if n == 0:
            return
        nbytes = n * self.cfg.walk_bytes
        self.ssd.dram.write(t, nbytes)
        self.metrics.record_dram(t, nbytes)
        if (blocks == blocks[0]).all():
            # One block (most small inserts): nothing to sort.
            group_blocks, counts = blocks[:1], np.array([n])
        else:
            order = np.argsort(blocks, kind="stable")
            sblocks = blocks[order]
            walks = WalkSet.wrap(
                walks.src[order], walks.cur[order], walks.hop[order]
            )
            if pre_edge is not None:
                pre_edge = pre_edge[order]
            bounds = np.flatnonzero(sblocks[1:] != sblocks[:-1]) + 1
            starts = np.concatenate(([0], bounds))
            counts = np.concatenate((bounds, [n])) - starts
            group_blocks = sblocks[starts]
        self._push_groups(t, group_blocks, counts, walks, pre_edge)

    def _insert_pwb_scalar(
        self,
        t: float,
        recs: list[tuple[int, int, int]],
        blocks: list[int],
        pre_edge: list[int] | None = None,
    ) -> None:
        """:meth:`_insert_pwb` of walk records: a stable group-by-block
        in Python."""
        n = len(blocks)
        nbytes = n * self.cfg.walk_bytes
        self.ssd.dram.write(t, nbytes)
        self.metrics.record_dram(t, nbytes)
        group_blocks = sorted(set(blocks))
        counts = [blocks.count(b) for b in group_blocks]
        if len(group_blocks) > 1:
            order = sorted(range(n), key=blocks.__getitem__)  # stable
            recs = [recs[i] for i in order]
            if pre_edge is not None:
                pre_edge = [pre_edge[i] for i in order]
        self._push_groups(t, group_blocks, counts, recs, pre_edge)

    def _push_groups(
        self,
        t: float,
        group_blocks: np.ndarray | list[int],
        counts: np.ndarray | list[int],
        walks: WalkSet | list[tuple[int, int, int]],
        pre_edge: np.ndarray | list[int] | None,
    ) -> None:
        """Buffer walks grouped by ascending distinct block, ``counts``
        walks per block."""
        # One scoreboard update and one buffer push for every block of
        # the insert; spills follow per block, in ascending block order.
        self.scheduler.add_buffered(group_blocks, counts)
        for block, spilled in self.pwb.push(group_blocks, counts, walks, pre_edge):
            self.scheduler.add_spilled(block, spilled)
            self.metrics.spilled_walks.add(spilled)
            # Overflowed entry flushes through the block's chip.
            self._spill_write(t, block, spilled)
        tr = self.tracer
        if tr is not None:
            tr.highwater("buf.pwb_pending_walks", self.scheduler.total_pending)
        self.in_transit -= len(walks)

    def _spill_write(self, t: float, block: int, n_walks: int) -> None:
        """Write an overflowed buffer entry to the block's chip."""
        nbytes = n_walks * self.cfg.walk_bytes
        chip_flat = int(self.block_chip[block])
        ch = self.ssd.channel(chip_flat // self.cfg.ssd.chips_per_channel)
        chip_hw = self.ssd.chip_flat(chip_flat)
        t_bus = ch.transfer_data(t, nbytes)
        self._record_bus(ch.bus, t, nbytes, t_bus)
        pages = max(1, math.ceil(nbytes / self.cfg.ssd.page_bytes))
        if self.ssd.dftl is None:
            t_prog = chip_hw.program_pages_striped(t_bus, pages)
        else:
            cpc = self.cfg.ssd.chips_per_channel
            t_prog = t_bus
            for k in range(pages):
                t_prog = max(
                    t_prog,
                    self._dftl_program(
                        t_bus, chip_flat // cpc, chip_flat % cpc, k, chip_hw
                    ),
                )
        self.metrics.record_flash_write(
            t_bus, pages * self.cfg.ssd.page_bytes, t_prog
        )

    def _store_foreigners(
        self, t: float, walks: WalkSet, target_blocks: np.ndarray | None
    ) -> None:
        """Route walks beyond the current partition to the foreigner store."""
        n = len(walks)
        if n == 0:
            return
        if target_blocks is None:
            target_blocks = self.part.block_of_vertex(walks.cur)
        pids = self.part.partition_of_block(
            target_blocks, self.cfg.partition_subgraphs
        )
        self.metrics.foreigner_walks.add(n)
        for pid in np.unique(pids):
            sel = pids == pid
            self.foreign.push(int(pid), walks.select(sel))
        tr = self.tracer
        if tr is not None:
            tr.highwater("buf.foreigner_store_walks", self.foreign.total)
        flush = self.board.add_foreigners(n)
        if flush:
            self._flush_to_flash(t, flush)
        self.in_transit -= n

    def _complete_walks(
        self,
        t: float,
        n: int,
        sink: str,
        walks: WalkSet | list[tuple[int, int, int]] | None = None,
    ) -> None:
        """Account ``n`` walks finishing at time ``t``.

        When ``record_finals`` is on and the finished walks (records or
        a WalkSet) are at hand, they are kept for the caller as a
        WalkSet.
        """
        self.completed_walks += n
        self.in_transit -= n
        self.metrics.record_completed(t, n)
        mx = self.telemetry
        if mx is not None:
            mx.gauge("engine_walks_in_transit").set(self.in_transit, t)
        j = self.journal
        if j is not None:
            j.append(t, n, self.completed_walks)
            if mx is not None:
                mx.gauge("durability_journal_pending_records").set(
                    j.pending_records, t
                )
        if self._finals is not None and walks is not None and len(walks):
            self._finals.append(as_walkset(walks))
        if sink in ("board", "channel"):
            flush = self.board.add_completed(n)
            if flush:
                self._flush_to_flash(t, flush)
        cb = self._on_completed
        if cb is not None and walks is not None:
            cb(t, walks)

    def _flush_to_flash(self, t: float, nbytes: int) -> float:
        """Board-side write of sink contents, striped over channels."""
        pages = max(1, math.ceil(nbytes / self.cfg.ssd.page_bytes))
        end = t
        c = self.cfg.ssd
        dftl = self.ssd.dftl
        for _ in range(pages):
            # Stripe pages over channels, then chips (persistent cursor),
            # so write-back never concentrates on one chip's planes.
            p = self._flush_cursor
            self._flush_cursor += 1
            ch_idx = p % c.channels
            chip_idx = (p // c.channels) % c.chips_per_channel
            ch = self.ssd.channel(ch_idx)
            t_bus = ch.transfer_data(t, c.page_bytes)
            chip_hw = ch.chip(chip_idx)
            if dftl is None:
                end = max(end, chip_hw.program_pages_striped(t_bus, 1))
            else:
                end = max(
                    end, self._dftl_program(t_bus, ch_idx, chip_idx, p, chip_hw)
                )
        self.metrics.record_channel(t, nbytes, end)
        self.metrics.record_flash_write(t, pages * self.cfg.ssd.page_bytes, end)
        mx = self.telemetry
        if mx is not None:
            mx.histogram("engine_flush_pages", _FLUSH_PAGE_BUCKETS).observe(
                pages, t
            )
        return end

    def _dftl_program(
        self, t: float, ch_idx: int, chip_idx: int, cursor: int, chip_hw
    ) -> float:
        """Allocate + program one engine log page through the DFTL/FTL.

        The page gets the next circular-log lpn, whose mapping entry
        enters the CMT dirty (misses pay translation-page traffic on the
        target chip), then goes through the FTL allocator — so wear
        leveling sees it and overwritten log pages build the invalid
        counts background GC reclaims.
        """
        c = self.cfg.ssd
        lpn = self.ssd.dftl.next_log_lpn()
        chip_flat = ch_idx * c.chips_per_channel + chip_idx
        t_xl = self.ssd.dftl_probe(t, chip_flat, (lpn,), write=True)
        planes_base = self.ssd.ftl.flat_plane(ch_idx, chip_idx, 0, 0)
        addr = self.ssd.ftl.write(
            lpn, plane_hint=planes_base + (cursor % c.planes_per_chip)
        )
        return chip_hw.program_page(t_xl, addr.die, addr.plane)

    def _read_scattered(self, t: float, nbytes: int) -> float:
        """Read ``nbytes`` of walk records striped over all channels."""
        if nbytes <= 0:
            return t
        pages = max(1, math.ceil(nbytes / self.cfg.ssd.page_bytes))
        end = t
        for p in range(pages):
            ch = self.ssd.channel(p % self.cfg.ssd.channels)
            chip_hw = ch.chip(p % self.cfg.ssd.chips_per_channel)
            t_read = chip_hw.read_page(
                t, p % self.cfg.ssd.dies_per_chip, p % self.cfg.ssd.planes_per_die
            )
            t_bus = ch.transfer_data(t, self.cfg.ssd.page_bytes)
            end = max(end, t_read, t_bus)
        self.metrics.record_flash_read(t, pages * self.cfg.ssd.page_bytes, end)
        self.metrics.record_channel(t, pages * self.cfg.ssd.page_bytes, end)
        return end

    # ------------------------------------------------------------- chip level

    def _kick_chips(self, t: float) -> None:
        for chip_idx in self.scheduler.chips_with_work():
            chip = self.chips[chip_idx]
            if not chip.busy:
                self._start_load(chip, t)

    def _start_load(self, chip: ChipAccelerator, t: float) -> None:
        if self._draining or chip.failed:
            # Draining toward a checkpoint barrier (loads restart once
            # the snapshot is taken) or the chip is dead (its blocks were
            # remapped; the scheduler will stop naming it).
            chip.busy = False
            return
        block = self.scheduler.next_subgraph(chip.index)
        if block is None:
            chip.busy = False
            return
        chip.busy = True
        batch, nb, ns = self.pwb.drain(block)
        s_nb, s_ns = self.scheduler.take_walks(block)
        if (s_nb, s_ns) != (nb, ns):  # pragma: no cover - consistency guard
            raise SimulationError(
                f"scheduler/buffer walk counts diverged for block {block}: "
                f"({s_nb},{s_ns}) vs ({nb},{ns})"
            )
        self.in_transit += nb + ns
        m = self.metrics
        ssd_cfg = self.cfg.ssd
        ch_hw = self.ssd.channel(chip.channel_id)
        chip_hw = self.ssd.chip(chip.channel_id, chip.chip_in_channel)
        # 1. Load command over the channel bus (extended ONFI).
        t_cmd = ch_hw.send_command(t)
        m.record_channel(t, ONFI_COMMAND_BYTES)
        # 2. Subgraph pages from this chip's planes (bus not involved).
        t_pages = t_cmd
        if chip.touch_block(block):
            pages = self.cfg.subgraph_pages()
            if self.ssd.dftl is not None:
                # The load must translate its lpns first; CMT misses pay
                # translation-page reads on this chip before any subgraph
                # page can be sensed.
                base_lpn = block * pages
                t_cmd = self.ssd.dftl_probe(
                    t_cmd, chip.index, range(base_lpn, base_lpn + pages)
                )
            t_pages = chip_hw.read_pages_striped(t_cmd, pages)
            m.record_flash_read(t_cmd, pages * ssd_cfg.page_bytes, t_pages)
            m.subgraph_loads.add()
            if block in self._rebuilding_blocks:
                # First load after failover: the replica is reassembled
                # from redundancy, costing extra sense time on this chip.
                self._rebuilding_blocks.discard(block)
                extra = (
                    pages
                    * ssd_cfg.read_latency
                    * (self.cfg.faults.rebuild_read_factor - 1.0)
                )
                t_pages += extra
                m.degraded_loads.add()
        # 3. Spilled walks read back from this chip's planes.
        if ns:
            sp_bytes = ns * self.cfg.walk_bytes
            sp_pages = max(1, math.ceil(sp_bytes / ssd_cfg.page_bytes))
            t_sp = chip_hw.read_pages_striped(t_cmd, sp_pages)
            m.record_flash_read(t_cmd, sp_pages * ssd_cfg.page_bytes, t_sp)
            t_pages = max(t_pages, t_sp)
        # 4. Buffered walks from on-board DRAM over the channel bus.  DRAM
        # fetch and bus transfer pipeline (DMA), so both are queued at
        # issue time and the completion is their max.
        t_walks = t_cmd
        if nb:
            nbytes = nb * self.cfg.walk_bytes
            t_dram = self.ssd.dram.read(t, nbytes)
            m.record_dram(t, nbytes)
            t_bus = ch_hw.transfer_data(t, nbytes)
            self._record_bus(ch_hw.bus, t, nbytes, t_bus)
            t_walks = max(t_cmd, t_dram, t_bus)
        t_ready = max(t_pages, t_walks)
        tr = self.tracer
        if tr is not None:
            tr.span("accel", PID_CHIP_ACCEL, chip.index, "subgraph_load",
                    t, t_ready,
                    args={"block": int(block), "buffered": nb, "spilled": ns})
            tr.latency("subgraph_load", t_ready - t)
        self.sim.at(t_ready, self._chip_process, chip, batch)

    def _chip_process(self, chip: ChipAccelerator, batch: WalkBatch) -> None:
        t = self.sim.now
        if chip.failed:
            # The chip died while this batch was loading.  Re-route the
            # walks through the board after the failover delay; their
            # pre-walked edges are dropped (dense walks are re-pre-walked,
            # an identical uniform redraw).
            chip.busy = False
            walks = batch.walks
            if len(walks):
                self.metrics.walks_rerouted.add(len(walks))
                tr = self.tracer
                if tr is not None:
                    tr.span("fault", PID_FAULTS, chip.index, "failover_reroute",
                            t, t + self.cfg.faults.failover_latency,
                            args={"walks": len(walks)})
                self.sim.at(
                    t + self.cfg.faults.failover_latency,
                    self._board_direct, walks, False,
                )
            else:
                self._service_barriers(t)
            return
        res = advance_batch(
            self.ctx, batch, chip.loaded, self.rngs.stream(f"chip{chip.index}")
        )
        busy = chip.batch_time(res)
        chip.push_roving(res.roving)
        stall = chip.roving_overflow_stall(self.cfg.roving_collect_interval)
        self.metrics.hops.add(res.hops)
        self.metrics.chip_busy.add(busy)
        self.metrics.stall_time.add(stall)
        self.metrics.roving_walks.add(len(res.roving))
        t_end = t + busy + stall
        tr = self.tracer
        if tr is not None:
            if busy > 0:
                tr.span("accel", PID_CHIP_ACCEL, chip.index, "chip_batch",
                        t, t + busy,
                        args={"hops": int(res.hops),
                              "completed": int(res.n_completed),
                              "roving": len(res.roving)})
                tr.busy("chip_accel", t, t + busy)
            if stall > 0:
                tr.span("accel", PID_CHIP_ACCEL, chip.index, "rove_stall",
                        t + busy, t_end)
        if res.n_completed:
            self._complete_walks(
                t_end, res.n_completed, sink="chip", walks=res.completed
            )
            self._chip_completed_flush(chip, t_end, res.n_completed)
        if chip.pending_rove_count:
            self._schedule_collect(chip.channel_id, t_end)
        self.sim.at(t_end, self._after_chip_batch, chip)

    def _chip_completed_flush(self, chip: ChipAccelerator, t: float, n: int) -> None:
        """Chip-side completed-walk buffer; programs own planes when full."""
        chip.pending_completed += n * self.cfg.walk_bytes
        if chip.pending_completed >= self.cfg.completed_buffer_bytes:
            nbytes = chip.pending_completed
            chip.pending_completed = 0
            pages = max(1, math.ceil(nbytes / self.cfg.ssd.page_bytes))
            chip_hw = self.ssd.chip(chip.channel_id, chip.chip_in_channel)
            if self.ssd.dftl is None:
                chip_hw.program_pages_striped(t, pages)
            else:
                for k in range(pages):
                    self._dftl_program(
                        t, chip.channel_id, chip.chip_in_channel, k, chip_hw
                    )
            self.metrics.record_flash_write(t, pages * self.cfg.ssd.page_bytes)

    def _after_chip_batch(self, chip: ChipAccelerator) -> None:
        t = self.sim.now
        chip.busy = False
        # A chip with nothing pending would only ask next_subgraph for
        # nothing (and refresh its topN list twice, to no effect).
        if self.scheduler.pending_on(chip.index):
            self._start_load(chip, t)
        if not chip.busy:
            self._service_barriers(t)

    # ---------------------------------------------------------- channel level

    def _schedule_collect(self, channel_id: int, t: float) -> None:
        ch = self.channels[channel_id]
        if ch.collect_scheduled:
            return
        ch.collect_scheduled = True
        interval = self.cfg.roving_collect_interval
        t_collect = math.ceil(max(t, self.sim.now) / interval) * interval
        if t_collect < self.sim.now:
            t_collect = self.sim.now
        self.sim.at(t_collect, self._collect_channel, channel_id)

    def _collect_channel(self, channel_id: int) -> None:
        """Periodic roving-walk collection by a channel accelerator."""
        t = self.sim.now
        ch = self.channels[channel_id]
        ch.collect_scheduled = False
        ch_hw = self.ssd.channel(channel_id)
        cpc = self.cfg.ssd.chips_per_channel
        parts = []
        t_arr = t
        for chip in self.chips[channel_id * cpc : (channel_id + 1) * cpc]:
            if chip.pending_rove_count == 0:
                continue
            w = chip.take_roving()
            nbytes = len(w) * self.cfg.walk_bytes
            t_xfer = ch_hw.transfer_data(t, nbytes)
            t_arr = max(t_arr, t_xfer)
            self._record_bus(ch_hw.bus, t, nbytes, t_xfer)
            parts.append(w)
        walks = concat_walks(parts)
        if len(walks) == 0:
            return
        n_collected = len(walks)
        busy = 0.0
        # Hot-subgraph updates at the channel level.
        if ch.hot_blocks:
            hot_walks = None
            if type(walks) is list:
                in_hot = self._hot_mask([r[1] for r in walks], channel_id)
                if True in in_hot:
                    hot_walks = [r for r, x in zip(walks, in_hot) if x]
                    walks = [r for r, x in zip(walks, in_hot) if not x]
            else:
                in_hot = (
                    self._hot_home[self.part.block_of_vertex(walks.cur)]
                    == channel_id
                )
                if in_hot.any():
                    hot_walks, walks = walks.split(in_hot)
            if hot_walks is not None:
                res = advance_batch(
                    self.ctx,
                    WalkBatch(hot_walks),
                    ch.hot_blocks,
                    self.rngs.stream(f"channel{channel_id}"),
                )
                busy += ch.batch_time(res)
                self.metrics.hops.add(res.hops)
                self.metrics.hot_hits_channel.add(len(hot_walks))
                if res.n_completed:
                    self._complete_walks(
                        t_arr, res.n_completed, sink="channel", walks=res.completed
                    )
                walks = concat_walks([walks, res.roving])
        # Approximate walk search tags the remainder.
        scoped = False
        if self.cfg.opt_walk_query and ch.range_table is not None and len(walks):
            busy += ch.range_query_time(len(walks))
            scoped = True
        busy += ch.guide_time(len(walks))
        self.metrics.channel_busy.add(busy)
        t_done = t_arr + busy
        tr = self.tracer
        if tr is not None and busy > 0:
            tr.span("accel", PID_CHANNEL_ACCEL, channel_id, "channel_collect",
                    t_arr, t_done, args={"walks": n_collected})
            tr.busy("channel_accel", t_arr, t_done)
        if len(walks):
            self.sim.at(t_done, self._board_direct, walks, scoped)
        else:
            self.sim.at(t_done, self._service_barriers, t_done)

    # ------------------------------------------------------------- resilience

    def _arm_chip_failures(self) -> None:
        """Schedule each configured chip failure still to come."""
        fm = self.fault_model
        if fm is None:
            return
        for t_fail, chip_flat in self.cfg.faults.chip_failures:
            if float(t_fail) >= self.sim.now and not fm.is_failed(int(chip_flat)):
                self.sim.at(float(t_fail), self._fail_chip, int(chip_flat))

    def _fail_chip(self, chip_flat: int) -> None:
        """Declare a whole chip dead and migrate its responsibilities.

        Blocks mapped to the chip are remapped round-robin over the
        surviving chips (their replicas rebuild lazily on first load);
        in-flight roving walks are re-routed through the board after the
        failover delay; the scheduler stops naming the chip.
        """
        t = self.sim.now
        fm = self.fault_model
        if fm is None or not fm.fail_chip(int(chip_flat)):
            return
        chip = self.chips[int(chip_flat)]
        chip.failed = True
        chip.loaded = []
        self.metrics.chips_failed.add()
        mx = self.telemetry
        if mx is not None:
            # Degraded-mode residency: the gauge's time-weighted mean
            # (exported per-series) times elapsed is seconds degraded.
            mx.gauge("engine_chips_failed").set(fm.chip_failures, t)
            mx.gauge("engine_degraded_mode").set(1.0, t)
        survivors = [c.index for c in self.chips if not c.failed]
        if not survivors:
            raise SimulationError("all chips failed; campaign cannot proceed")
        mine = np.flatnonzero(self.block_chip == int(chip_flat))
        if mine.size:
            new_chips = np.asarray(
                [survivors[i % len(survivors)] for i in range(mine.size)],
                dtype=np.int64,
            )
            self.block_chip[mine] = new_chips
            self._rebuilding_blocks.update(int(b) for b in mine)
            if self.scheduler is not None:
                in_part = mine[
                    (mine >= self.scheduler.first_block)
                    & (mine <= self.scheduler.last_block)
                ]
                if in_part.size:
                    self.scheduler.reassign_blocks(
                        in_part, self.block_chip[in_part]
                    )
            # Cached mapping entries for the remapped blocks point at the
            # dead chip's placement; drop them so post-failover queries
            # re-resolve instead of serving stale hits.
            self.board.invalidate_cached_blocks(mine)
        # Walks stranded in the chip's roving buffer fail over to the
        # board path; completed-walk bytes pending flush are lost traffic
        # only (their completion is already accounted).
        rerouted = chip.take_roving()
        chip.pending_completed = 0
        tr = self.tracer
        if tr is not None:
            tr.span("fault", PID_FAULTS, int(chip_flat), "chip_failover",
                    t, t + self.cfg.faults.failover_latency,
                    args={"rerouted": len(rerouted),
                          "blocks_remapped": int(mine.size)})
        if len(rerouted):
            self.metrics.walks_rerouted.add(len(rerouted))
            self.sim.at(
                t + self.cfg.faults.failover_latency,
                self._board_direct, rerouted, False,
            )
        self._kick_chips(t)

    # ------------------------------------------------------------- checkpoints

    @property
    def latest_checkpoint(self):
        """Most recent checkpoint of the current/last run (or None)."""
        return self._checkpoints.latest

    def _quiescent(self) -> bool:
        """True when no walk is mid-flight through any pipeline stage."""
        return (
            self.in_transit == 0
            and self._board_inflight == 0
            and not any(c.busy or c.pending_rove_count for c in self.chips)
        )

    def _service_barriers(self, t: float) -> None:
        """Checkpoint drain barrier + partition-end check.

        Called wherever the event graph reaches a potential rest point.
        When a checkpoint is due, new subgraph loads stop (``_draining``)
        until every in-flight walk settles into a buffer, the snapshot is
        taken at full quiescence, and loads restart.
        """
        if self._ckpt_interval > 0 and not self._done:
            if not self._draining and t >= self._next_checkpoint:
                self._draining = True
                tr = self.tracer
                if tr is not None:
                    tr.instant("ckpt", PID_RUN, 0, "ckpt_drain_start", t)
            if self._draining and self._quiescent():
                self._draining = False
                self._take_checkpoint(t)
                self._kick_chips(t)
        self._maybe_finish_partition(t)

    def _take_checkpoint(self, t: float, capture: bool = True) -> None:
        from ..faults.checkpoint import capture_checkpoint

        # Counter and next-deadline advance *before* capture so a resumed
        # run continues with identical checkpoint cadence and totals.
        # The journal truncates first for the same reason: the snapshot
        # itself covers everything the journal recorded so far.
        self.metrics.checkpoints.add()
        self._next_checkpoint = t + self._ckpt_interval
        if self.journal is not None:
            self.journal.on_checkpoint(self.completed_walks)
        self._checkpoints.save(
            capture_checkpoint(self, t) if capture
            else Checkpoint(time=t, data=None)
        )
        tr = self.tracer
        if tr is not None:
            tr.instant("ckpt", PID_RUN, 0, "checkpoint", t,
                       args={"index": int(self.metrics.checkpoints.total)})

    def checkpoint_now(self, capture: bool = True) -> None:
        """Take an explicit quiescent checkpoint at the current time.

        The cluster layer calls this at every epoch boundary — engine
        drained, no walk mid-flight — so a shard killed mid-epoch can
        be restored to the exact epoch start and replayed
        bit-identically.  With ``capture=False`` the checkpoint's
        bookkeeping (counter, cadence, journal truncation, retention)
        is identical but the engine state is not copied: the saved
        entry holds no data, and restoring it raises.  The cluster
        captures only in epochs where a kill can fire.  Raises if the
        engine is not quiescent (a snapshot of in-flight state would
        not be restorable).
        """
        if not self._quiescent():
            raise SimulationError(
                "checkpoint_now() requires a quiescent engine "
                f"(in_transit={self.in_transit}, "
                f"board_inflight={self._board_inflight})"
            )
        self._take_checkpoint(self.sim.now, capture)

    def arm_power_loss(self, t: float) -> None:
        """Arm a single power-loss event at absolute time ``t``.

        Unlike :meth:`schedule_power_loss` (a whole-run schedule set
        before ``run()``), this replaces the schedule mid-session and
        resets the fired-crash cursor, so callers that inject repeated
        seeded kills — the cluster's shard-kill injector — can re-arm
        between epochs.  Requires the durability layer (recovery needs
        checkpoints and the walk journal).
        """
        if not self.cfg.durability.enabled:
            raise SimulationError(
                "arm_power_loss() requires durability.enabled "
                "(recovery replays from checkpoint + journal)"
            )
        if t < self.sim.now:
            raise SimulationError(
                f"cannot arm power loss in the past: t={t} < now={self.sim.now}"
            )
        for pending in self._power_cuts.values():
            self.sim.cancel(pending)
        self.power_loss_times = (float(t),)
        self._crashes_fired = 0
        # Schedule only the power cut itself.  Running the full
        # _arm_background here would arm the journal/scrub events *now*
        # rather than at the next injection (where an unkilled run arms
        # them), shifting their fire phase — and with it the engine's
        # flush contention — so a killed timeline would diverge from
        # its uninterrupted baseline even before the crash fires.
        self._power_cuts = {
            0: self.sim.at(float(t), self._power_loss, 0, priority=_PRIO_POWER_LOSS)
        }

    def restore_for_resume(self, checkpoint=None):
        """Restore state and scheduled events from a checkpoint.

        The restore half of :meth:`resume`, split out so layers above
        the engine (the query service) can interpose their own state
        restoration between this and driving the simulation.  Returns
        the checkpoint that was restored.
        """
        from ..faults.checkpoint import restore_checkpoint

        snap = checkpoint if checkpoint is not None else self.latest_checkpoint
        if snap is None:
            raise SimulationError("no checkpoint available to resume from")
        restore_checkpoint(self, snap)
        return snap

    def resume(
        self,
        checkpoint=None,
        max_events: int | None = None,
    ) -> RunResult:
        """Continue a crashed campaign from a checkpoint.

        Restores engine, hardware-occupancy, and RNG state from
        ``checkpoint`` (default: the latest snapshot taken by the crashed
        run) and drives the simulation to completion.  The merged result
        matches an uninterrupted run exactly.
        """
        self.restore_for_resume(checkpoint)
        t = self.sim.now
        self._kick_chips(t)
        self._service_barriers(t)
        self.sim.run(max_events=max_events)
        return self._finalize_run()

    # -------------------------------------------------------------- durability

    def schedule_power_loss(self, *times: float) -> None:
        """Schedule seeded power-loss events at the given simulated times.

        Each raises :class:`~repro.common.errors.PowerLossError` out of
        ``sim.run()`` the instant the clock reaches it (any event
        boundary, not just quiescent barriers); :meth:`recover` restores
        the latest checkpoint and replays forward.  Times past the end
        of the run never fire.  Requires ``durability.enabled`` — the
        schedule is a runtime attribute, deliberately outside the
        config so it does not perturb the ``config_fingerprint``.
        """
        self.power_loss_times = tuple(sorted(float(t) for t in times))

    def _arm_background(self, names: set[str] | None = None) -> None:
        """Arm each recurring background event that is not armed yet
        (only those in ``names`` when given) and each pending power cut.

        An event fires first at its stored next time (after a restore,
        the snapshot's) or, with none stored, by its first-fire rule;
        never before now.  A restore passes the snapshot's armed set: a
        snapshot taken at a drained rest point (cluster epoch boundary)
        had none armed, and the resumed timeline must arm them at its
        next injection, exactly as the original did, or the flush,
        scrub and GC phases diverge from it.
        """
        t = self.sim.now
        for name, (prio, first, _) in self._recurring.items():
            if name in self._armed or (names is not None and name not in names):
                continue
            nxt = self._fire_times.get(name)
            if nxt is None:
                nxt = first(t)
                if nxt is None:
                    continue
            nxt = self._fire_times[name] = max(nxt, t)
            self._armed[name] = self.sim.at(
                nxt, self._fire_background, name, priority=prio
            )
        if not self.cfg.durability.enabled:
            return
        for i, tp in enumerate(self.power_loss_times):
            if i < self._crashes_fired or i in self._power_cuts or float(tp) < t:
                continue
            self._power_cuts[i] = self.sim.at(
                float(tp), self._power_loss, i, priority=_PRIO_POWER_LOSS
            )

    def _fire_background(self, name: str) -> None:
        """Run one pass of a recurring event and re-arm it at the time
        the pass returns, unless the event stopped or the run is done."""
        prio, _, fire = self._recurring[name]
        nxt = self._fire_times[name] = fire(self.sim.now)
        if nxt is None or self._done:
            del self._armed[name]
        else:
            self._armed[name] = self.sim.at(
                nxt, self._fire_background, name, priority=prio
            )

    def _cancel_background(self) -> None:
        """Cancel the armed background events and power cuts so the run
        can end."""
        for pending in (*self._armed.values(), *self._power_cuts.values()):
            self.sim.cancel(pending)
        self._armed.clear()
        self._power_cuts.clear()

    def _journal_flush(self, t: float) -> float:
        """Group-commit pass: pending journal records become durable."""
        j = self.journal
        nbytes = j.pending_bytes
        if nbytes > 0:
            # The journal pays normal write-back cost and competes for
            # channel/NAND bandwidth like any sink flush.
            end = self._flush_to_flash(t, nbytes)
            j.mark_flushed(
                end, pages=max(1, math.ceil(nbytes / self.cfg.ssd.page_bytes))
            )
            mx = self.telemetry
            if mx is not None:
                mx.counter("durability_journal_flushes").inc(1.0, t)
                mx.counter("durability_journal_flushed_bytes").inc(nbytes, t)
                mx.gauge("durability_journal_pending_records").set(0.0, t)
        return t + self.cfg.durability.journal_interval

    def _corruption_due(self, t: float) -> float | None:
        """The next Poisson arrival after ``t`` (one exponential draw),
        or None once ``max_corruption_events`` arrivals were injected."""
        dcfg = self.cfg.durability
        it = self.integrity
        cap = dcfg.max_corruption_events
        if cap and it.injected >= cap:
            return None
        return t + float(it.rng.exponential(1.0 / dcfg.silent_corruption_rate))

    def _corruption_arrival(self, t: float) -> float | None:
        """Poisson arrival: a random plane develops silent corruption."""
        self.integrity.inject(t)
        return self._corruption_due(t)

    def _scrub_pass(self, t: float) -> float:
        """Background scrub pass: verify the next planes at the cursor."""
        it = self.integrity
        pages_before = it.scrub_pages_read
        it.scrub_pass(t)
        mx = self.telemetry
        if mx is not None:
            mx.counter("durability_scrub_passes").inc(1.0, t)
            mx.counter("durability_scrub_pages").inc(
                it.scrub_pages_read - pages_before, t
            )
        return t + self.cfg.durability.scrub_interval

    def _ftl_gc_pass(self, t: float) -> float:
        """Background-GC pass: reclaim the neediest planes' worst blocks.

        Each pass collects at most ``gc_planes_per_pass`` planes whose
        free-block counts sit at/below the watermark; the migrations and
        erases occupy the owning chips' dispatchers, planes, and channel
        buses — the housekeeping traffic walks contend with.
        """
        ftl = self.ssd.ftl
        for flat in ftl.gc_candidates()[: self.cfg.ssd.ftl.gc_planes_per_pass]:
            self.ssd.ftl_gc_collect(t, flat)
        mx = self.telemetry
        if mx is not None:
            if ftl._touched:
                mx.gauge("ftl_free_blocks_min").set(
                    min(ftl.free_blocks(f) for f in ftl._touched), t
                )
            mx.gauge("ftl_write_amplification").set(
                self.ssd.dftl.write_amplification(ftl), t
            )
            mx.gauge("ftl_cmt_hit_rate").set(self.ssd.dftl.cmt.hit_rate, t)
        return t + self.cfg.ssd.ftl.gc_interval

    def _power_loss(self, index: int) -> None:
        """Cut power: volatile state is lost, torn pages drawn, run aborts."""
        t = self.sim.now
        self._power_cuts.pop(index, None)
        self._crashes_fired = index + 1
        # Torn-page draw from a seed derived per crash, outside the
        # registry: the crash must not perturb any checkpointed stream
        # (the replayed timeline never executes this draw).
        rng = np.random.default_rng(
            derive_seed(self._seed, f"powerloss:{index}")
        )
        prob = self.cfg.durability.torn_page_prob
        torn: list[tuple[int, int, int]] = []
        for i in range(self.cfg.ssd.total_chips):
            chip_hw = self.ssd.chip_flat(i)
            for d_i, die in enumerate(chip_hw.dies):
                for p_i, pl in enumerate(die.planes):
                    if pl.busy_until > t and rng.random() < prob:
                        torn.append((i, d_i, p_i))
        self._last_power_loss = {
            "at": t,
            "events": self.sim.events_executed,
            "completed": self.completed_walks,
            "torn": tuple(torn),
        }
        tr = self.tracer
        if tr is not None:
            tr.instant("fault", PID_FAULTS, 0, "power_loss", t,
                       args={"index": index, "torn_pages": len(torn)})
        raise PowerLossError(
            f"power loss at t={t:.6f}s with "
            f"{self.total_walks - self.completed_walks} walks in flight "
            f"and {len(torn)} torn pages",
            at=t,
            events_executed=self.sim.events_executed,
            completed_walks=self.completed_walks,
            torn_pages=torn,
        )

    def _quarantine_plane(self, chip_flat: int, die: int, plane: int) -> None:
        """Integrity-layer quarantine: retire the plane's active block.

        Routed through the FTL's bad-block machinery (so the remap lands
        in the replayable remap log) and invalidates the board's cached
        mapping entries for the chip's blocks — reconstruction moved
        pages, so stale cache hits must re-resolve.
        """
        cpc = self.cfg.ssd.chips_per_channel
        flat = self.ssd.ftl.flat_plane(
            chip_flat // cpc, chip_flat % cpc, die, plane
        )
        self.ssd.ftl.retire_active_block(flat)
        mine = np.flatnonzero(self.block_chip == int(chip_flat))
        if mine.size:
            self.board.invalidate_cached_blocks(mine)

    def _crash_context(self, snap) -> dict:
        """RPO/RTO accounting for the crash being recovered from.

        Must run *before* the checkpoint restore wipes the crashed
        timeline's journal and accounting.  Verifies the journal and
        raises :class:`InvariantViolation` if any record was dropped or
        corrupted.
        """
        if snap.data is None:
            raise SimulationError(
                f"checkpoint at t={snap.time:.9f} was not captured; "
                "cannot account for a crash against it"
            )
        info = self._last_power_loss or {}
        t_crash = float(info.get("at", self.sim.now))
        j = self.journal
        if j is not None:
            violations = j.verify()
            if violations:
                raise InvariantViolation(
                    "walk journal failed verification during recovery",
                    violations=violations,
                    at=t_crash,
                    context="durability/journal",
                )
        completed_at_crash = int(info.get("completed", self.completed_walks))
        if j is not None:
            durable = int(j.durable_cum())
            replay_records = j.durable_records()
            record_bytes = j.record_bytes
        else:
            durable = int(snap.data["completed_walks"])
            replay_records = 0
            record_bytes = 0
        ssd_cfg = self.cfg.ssd
        # Journal replay: re-read the durable records from flash.
        replay_pages = (
            max(1, math.ceil(replay_records * record_bytes / ssd_cfg.page_bytes))
            if replay_records
            else 0
        )
        journal_replay_time = replay_pages * (
            ssd_cfg.read_latency
            + ssd_cfg.page_bytes / ssd_cfg.channel_bytes_per_sec
        )
        # Torn pages: RAIN-reconstruct each from its parity group (read
        # the survivors, stream the XOR over the bus, program back).
        torn = info.get("torn", ())
        per_torn = (
            ssd_cfg.read_latency
            + (ssd_cfg.chips_per_channel - 1)
            * ssd_cfg.page_bytes
            / ssd_cfg.channel_bytes_per_sec
            + ssd_cfg.program_latency
        )
        torn_repair_time = len(torn) * per_torn
        replay_span = max(0.0, t_crash - snap.time)
        return {
            "crashes": int(self._crashes_fired),
            "t_crash": t_crash,
            "events_at_crash": int(info.get("events", 0)),
            "completed_at_crash": completed_at_crash,
            "checkpoint_time": float(snap.time),
            "completed_at_checkpoint": int(snap.data["completed_walks"]),
            "durable_walks": durable,
            "rpo_walks": max(0, completed_at_crash - durable),
            "torn_pages": len(torn),
            "journal_replay_time": journal_replay_time,
            "torn_repair_time": torn_repair_time,
            "replay_span": replay_span,
            "rto_time": replay_span + journal_replay_time + torn_repair_time,
        }

    def recover(self, max_events: int | None = None) -> RunResult:
        """Recover from a power loss: restore, replay, report RPO/RTO.

        Resumes from the latest checkpoint and attaches the crash's
        recovery accounting under ``result.durability["recovery"]`` —
        the *only* part of the result that may differ from an
        uninterrupted run's.
        """
        snap = self.latest_checkpoint
        if snap is None:
            raise SimulationError(
                "no checkpoint available to recover from "
                "(cold restart required)"
            )
        ctx = self._crash_context(snap)
        result = self.resume(snap, max_events=max_events)
        if result.durability is not None:
            result.durability = dict(result.durability, recovery=ctx)
        return result

    def _durability_section(self) -> dict:
        """Replay-invariant durability stats for the run report."""
        dcfg = self.cfg.durability
        out: dict = {
            "enabled": True,
            "checkpoints": {
                "taken": int(self.metrics.checkpoints.total),
                "retained": len(self._checkpoints),
                "keep_last": int(dcfg.checkpoint_keep_last),
            },
        }
        if self.journal is not None:
            out["journal"] = self.journal.stats()
        if self.integrity is not None:
            out["integrity"] = self.integrity.stats()
        return out

    # ----------------------------------------------------------- partition end

    def _maybe_finish_partition(self, t: float) -> None:
        if self._done or self.scheduler is None:
            return
        if self.scheduler.total_pending > 0 or self.in_transit > 0:
            return
        if any(c.busy or c.pending_rove_count for c in self.chips):
            return
        if self.completed_walks >= self.total_walks:
            self._done = True
            # Recurring background events (and unfired power losses)
            # would otherwise keep the event loop alive forever.
            self._cancel_background()
            return
        if self.foreign.total == 0:  # pragma: no cover - consistency guard
            raise SimulationError(
                "no pending work anywhere but "
                f"{self.total_walks - self.completed_walks} walks unfinished"
            )
        self._switch_partition(t)

    # -------------------------------------------------------------- inspection

    def describe(self) -> str:
        """Human-readable configuration/topology summary."""
        from ..common.units import fmt_bytes

        return (
            f"FlashWalker: |V|={self.graph.num_vertices} "
            f"|E|={self.graph.num_edges} blocks={self.part.num_blocks} "
            f"({fmt_bytes(self.cfg.subgraph_bytes)} each) "
            f"partitions={self.n_partitions} chips={len(self.chips)} "
            f"channels={len(self.channels)} "
            f"hot(board/chan)={len(self.board.hot_blocks)}/"
            f"{sum(len(c.hot_blocks) for c in self.channels)} "
            f"dense={self.part.num_dense_vertices}"
        )
