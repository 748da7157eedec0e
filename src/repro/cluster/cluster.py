"""Cluster coordinator: the front-end router over N FlashWalker shards.

:class:`ClusterService` serves walk queries against a fleet of
simulated devices.  Execution is barrier-synchronized: each *epoch*
the router admits arrivals, leases walk segments (``segment_hops``
hops each) to the shards that own their current vertices, steps every
loaded shard's local simulator to drain, then — at the barrier —
collects completed segments, migrates walks whose vertices now live
elsewhere over the fault-injected :class:`~repro.cluster.link.NetworkLink`,
credits finished walks to their queries, and sweeps deadlines.  The
cluster clock is the max of the stepped shards' local clocks, so all
router-level times (latencies, deadlines, failover timestamps) are
epoch-granular while each shard's internal timing stays event-exact.

Determinism and fault-tolerance by construction:

* every per-shard seed is sha256-derived from the root seed;
* all cross-shard processing happens in the coordinator, in sorted
  ``(shard, walk)`` order, so serial and process-pool execution are
  byte-identical;
* shard kills (seeded power loss) are recovered *inside* the epoch by
  replica promotion — restore the epoch-start checkpoint (what the
  durable checkpoint + walk journal reconstruct) and replay — so a
  killed run's report matches the uninterrupted baseline everywhere
  outside the ``cluster.failovers`` timeline;
* walks are owned by exactly one table entry from admission to
  completion; the online :class:`~repro.cluster.audit.ClusterAuditor`
  proves none is lost or duplicated at every barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConfigError, SimulationError
from ..common.rng import derive_seed
from ..obs.alerts import default_cluster_rules
from ..obs.metrics import MetricsRegistry
from ..service.brownout import BrownoutController
from ..service.queue import AdmissionQueue
from ..service.request import (
    QueryLedger,
    QueryRequest,
    QueryResult,
    QueryState,
    arrival_order,
)
from ..walks.spec import start_vertices
from .audit import ClusterAuditor
from .config import ClusterConfig
from .health import HealthBoard
from .link import NetworkLink
from .placement import VertexPlacement
from .pool import ShardHosts
from .resize import ResizeController
from .shard import ShardStepCommand

__all__ = ["ClusterOutcome", "ClusterService"]

CLUSTER_SCHEMA = "repro.obs.cluster-report"
CLUSTER_SCHEMA_VERSION = 4

#: Failover-RTO histogram bounds (simulated seconds of replica
#: catch-up: checkpoint restore + journal replay + epoch re-run).
_RTO_BUCKETS = (1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3)


class _Walk:
    """One logical walk, owned by the router from admission to done."""

    __slots__ = (
        "wid", "query_id", "vertex", "remaining", "state", "shard",
        "eligible_at", "leased_hops", "migrations", "handoffs",
        "hedge_shard",
    )

    def __init__(self, wid, query_id, vertex, remaining, shard, eligible_at):
        self.wid = wid
        self.query_id = query_id
        self.vertex = vertex
        self.remaining = remaining
        self.state = "queued"
        self.shard = shard
        self.eligible_at = eligible_at
        self.leased_hops = 0
        self.migrations = 0
        self.handoffs = 0
        #: Second executing shard while a hedged lease is in flight
        #: (None outside the lease — the duplicate-suppression audit
        #: checks exactly that at every barrier).
        self.hedge_shard = None


@dataclass
class ClusterOutcome:
    """What one cluster run produced."""

    report: dict
    responses: list[QueryResult] = field(default_factory=list)

    def by_id(self) -> dict[int, QueryResult]:
        return {r.query_id: r for r in self.responses}


class ClusterService:
    """Route queries across sharded engines with failover built in."""

    def __init__(self, graph, shard_cfgs, ccfg: ClusterConfig | None = None,
                 *, seed: int = 3, jobs: int = 1,
                 start_method: str | None = None):
        self.graph = graph
        self.ccfg = (ccfg or ClusterConfig()).validate()
        n = self.ccfg.n_shards
        if not isinstance(shard_cfgs, (list, tuple)):
            shard_cfgs = [shard_cfgs] * n
        if len(shard_cfgs) != n:
            raise ConfigError(
                f"{len(shard_cfgs)} shard configs for {n} shards"
            )
        self.shard_cfgs = list(shard_cfgs)
        self.seed = int(seed)
        self.jobs = int(jobs)
        self.start_method = start_method
        self.placement = VertexPlacement(
            self.ccfg.placement, n, graph.num_vertices
        )
        self.link = NetworkLink(self.ccfg, self.seed)
        self.svc_cfg = self.ccfg.service_cfg().validate()
        self.queue = AdmissionQueue.from_config(self.ccfg)
        self.health = HealthBoard(
            self.svc_cfg, n,
            load_window_epochs=self.ccfg.rebalance_window_epochs,
            straggler_window_epochs=(
                self.ccfg.straggler_window_epochs
                if self.ccfg.straggler_detection else 0
            ),
            straggler_min_epochs=self.ccfg.straggler_min_epochs,
            straggler_median_multiple=self.ccfg.straggler_median_multiple,
        )
        self.auditor = ClusterAuditor(self, self.ccfg.audit_interval_epochs)
        self.resizer = ResizeController(self, self.ccfg)
        self._start_rng = np.random.default_rng(
            derive_seed(self.seed, "cluster:starts")
        )
        # -- run state (the auditor reads these) ---------------------------
        self.walks: dict[int, _Walk] = {}
        #: The walks not yet done (a subset of ``walks``, which keeps
        #: every walk for the report); ``_retire_walk`` removes each.
        self.live_walks: dict[int, _Walk] = {}
        #: Retry budgets charge link retransmits and hedges.
        self.ledger = QueryLedger(
            "cluster", self.queue, self.ccfg.query_retry_budget,
            lambda: self.telemetry,
        )
        #: Latest commit time credited to each query: its answer time.
        self._last_credit: dict[int, float] = {}
        self.now = 0.0
        self.epoch = 0
        self.walks_created = 0
        self.walks_done = 0
        self.deferrals = 0
        self.walks_sacrificed = 0
        self.engine_totals = [0] * n
        self.engine_completed = [0] * n
        self.segments_injected = [0] * n
        self.segments_collected = [0] * n
        self.migrations_out = [0] * n
        self.migrations_in = [0] * n
        self.epochs_stepped = [0] * n
        self.handoffs_out = [0] * n
        self.handoffs_in = [0] * n
        self.prev_duration = [0.0] * n
        self.failovers: list[dict] = []
        self.kills_unfired: list = []
        # -- gray-failure run state ---------------------------------------
        self.hedges_issued = 0
        self.hedge_wins_primary = 0
        self.hedge_wins_hedge = 0
        self.hedge_wasted_segments = 0
        self.hedges_deferred = 0
        self.segments_committed = 0
        self.ramp_epochs = 0
        self.brownout = BrownoutController.from_config(self.ccfg)
        self._retired_reports: dict[int, dict] = {}
        self._expected_walks = 0
        self._shard_mcfg = None
        self._t0 = 0.0
        # -- telemetry (opt-in; None keeps every path at one is-None check)
        if self.ccfg.telemetry_enabled:
            self.telemetry = MetricsRegistry(self.ccfg.metrics_cfg().validate())
            self.telemetry.bind_clock(lambda: self.now)
            self.telemetry.add_rules(default_cluster_rules())
        else:
            self.telemetry = None
        # Per-shard breaker state last recorded into telemetry (points
        # only on transitions) and the link counters already credited.
        self._breaker_recorded = [False] * n
        self._link_retransmits_seen = 0
        self._link_messages_seen = 0

    # ------------------------------------------------------------------- run

    def run(self, requests: list[QueryRequest]) -> ClusterOutcome:
        """Serve ``requests`` to completion across the cluster."""
        ordered = arrival_order(requests, self.ccfg.max_walk_length)
        n = self.ccfg.n_shards
        self._expected_walks = sum(r.num_walks for r in ordered) // n + 1
        self._shard_mcfg = (
            self.ccfg.metrics_cfg() if self.ccfg.telemetry_enabled else None
        )
        params = [self._shard_params(i) for i in range(n)]
        hosts = ShardHosts(
            params, jobs=self.jobs, start_method=self.start_method
        )
        try:
            t0s = hosts.setup()
            self._t0 = self.now = max(t0s.values())
            self._drive(hosts, ordered)
            self.auditor.audit(final=True)
            shard_reports = dict(self._retired_reports)
            shard_reports.update(hosts.finalize())
        finally:
            hosts.close()
        report = self._build_report(
            [shard_reports[i] for i in range(self.n_phys)], jobs=hosts.jobs
        )
        return ClusterOutcome(report=report, responses=list(self.ledger.responses))

    def _shard_params(self, shard_id: int) -> dict:
        """Runtime-construction params for one physical shard (also the
        template a live grow uses for shards minted mid-run)."""
        return {
            "shard_id": shard_id,
            "graph": self.graph,
            "cfg": self.shard_cfgs[shard_id % len(self.shard_cfgs)],
            "seed": derive_seed(self.seed, f"shard:{shard_id}"),
            "spec_length": self.ccfg.max_walk_length,
            "expected_walks": self._expected_walks,
            "telemetry": self._shard_mcfg,
        }

    # ------------------------------------------------------------ membership

    @property
    def n_phys(self) -> int:
        """Physical shards ever created (live + retired); all per-shard
        arrays are indexed by physical id and only ever grow."""
        return len(self.engine_totals)

    def add_shards(self, count: int, hosts: ShardHosts) -> list[int]:
        """Live grow: mint ``count`` fresh shards (new physical ids),
        open their engine sessions, and register router-side state.
        Returns the new ids; the caller folds them into the placement."""
        added = []
        for _ in range(int(count)):
            sid = self.n_phys
            hosts.add_shard(self._shard_params(sid))
            self.health.add_shard()
            for arr in (
                self.engine_totals, self.engine_completed,
                self.segments_injected, self.segments_collected,
                self.migrations_out, self.migrations_in,
                self.epochs_stepped, self.handoffs_out, self.handoffs_in,
            ):
                arr.append(0)
            self.prev_duration.append(0.0)
            self._breaker_recorded.append(False)
            added.append(sid)
        return added

    def retire_shard(self, shard_id: int, hosts: ShardHosts) -> None:
        """Live removal of an emptied shard: finalize its engine, stash
        its run report, and retire health/breaker/link state so nothing
        stale can reroute to or report for it."""
        sid = int(shard_id)
        resident = [w.wid for w in self.live_walks.values() if w.shard == sid]
        if resident:
            raise SimulationError(
                f"cannot retire shard {sid}: {len(resident)} walks resident"
            )
        self._retired_reports[sid] = hosts.remove_shard(sid)
        self.health.retire(sid)
        self.link.retire_shard(sid)

    # ------------------------------------------------------------ epoch loop

    def _drive(self, hosts: ShardHosts, ordered: list[QueryRequest]) -> None:
        ccfg = self.ccfg
        arrivals = [(self._t0 + r.arrival, r) for r in ordered]
        next_arrival = 0
        kills = sorted(
            ((float(t), int(s)) for t, s in ccfg.kill_schedule),
            key=lambda ts: (ts[0], ts[1]),
        )
        while True:
            if self.epoch >= ccfg.max_epochs:
                raise SimulationError(
                    f"cluster exceeded max_epochs={ccfg.max_epochs}; "
                    "possible livelock"
                )
            T = self.now
            # 1. Arrivals up to the barrier, in (arrival, query_id) order.
            while next_arrival < len(arrivals) and arrivals[next_arrival][0] <= T:
                t_arr, req = arrivals[next_arrival]
                next_arrival += 1
                self.ledger.admit(self.ledger.arrive(req, t_arr), t_arr)
            # 2. Health poll.
            open_now = self.health.poll(T)
            mx = self.telemetry
            if mx is not None:
                for sid in range(len(open_now)):
                    if open_now[sid] != self._breaker_recorded[sid]:
                        self._breaker_recorded[sid] = open_now[sid]
                        mx.gauge("cluster_breaker_open", shard=str(sid)).set(
                            1.0 if open_now[sid] else 0.0, T
                        )
            # 3. Elastic membership barrier step: fire due resizes, hand
            #    off wrong-owner residents, commit / roll back.  Runs
            #    after the health poll (so deferrals see fresh breaker
            #    state) and before leasing (so a walk is never leased
            #    and handed off in the same barrier).  Shards added this
            #    barrier join `open_now` closed; they are polled from
            #    the next barrier on.
            self.resizer.tick(T, hosts, open_now)
            if len(open_now) < self.n_phys:
                open_now.extend([False] * (self.n_phys - len(open_now)))
            # 4. Admit queued queries under the healthy-capacity budget.
            self._admit(T, open_now)
            # 5. Lease eligible walks to shards.
            cmds = self._lease(T, open_now)
            leased = [0] * self.n_phys
            for sid, cmd in cmds.items():
                leased[sid] = sum(len(b[1]) for b in cmd.batches)
            self.health.note_loads(leased)
            # 6. Attach due kills to victims that have work this epoch.
            for i, (t_kill, sid) in enumerate(kills):
                if t_kill <= T and sid in cmds and cmds[sid].kill_delay is None:
                    cmds[sid].kill_delay = (
                        ccfg.kill_epoch_frac * self.prev_duration[sid]
                    )
                    kills[i] = None
            kills = [k for k in kills if k is not None]
            # 7. Nothing to step: finish, or advance the clock to the
            #    next actionable instant (arrival, delivery, reopen).
            if not cmds:
                if self._finished(next_arrival, len(arrivals)):
                    self.kills_unfired = list(kills)
                    return
                self.now = self._advance_clock(
                    T, arrivals, next_arrival, open_now
                )
                self.epoch += 1
                continue
            # 8. Step the loaded shards (concurrently when pooled).
            results = hosts.step(cmds)
            for sid in sorted(results):
                r = results[sid]
                self.prev_duration[sid] = r.t_end - r.t_start
                self.epochs_stepped[sid] += 1
                if ccfg.straggler_detection:
                    # Busy time between completions, not wall span or
                    # per-walk sojourn: requeues spread injections
                    # across the epoch (so t_end - t_start measures
                    # the injection schedule), and sojourn times grow
                    # with batch size (so a fast shard handed a big
                    # batch would look slow).  Summing completion gaps
                    # while work was boarded isolates the shard's
                    # drain rate.  Boarding is exactly max(t_start,
                    # batch t_min) -- batches are scheduled while the
                    # engine clock reads t_start.
                    board = {}
                    for t_min, ids, _, _ in cmds[sid].batches:
                        t_b = max(r.t_start, float(t_min))
                        for wid in ids:
                            board[int(wid)] = t_b
                    busy, n_done, prev = 0.0, 0, r.t_start
                    for t_done, ids, _ in r.completions:
                        start = max(
                            prev,
                            min(board[int(wid)] for wid in ids),
                        )
                        if t_done > start:
                            busy += t_done - start
                        prev = max(prev, float(t_done))
                        n_done += len(ids)
                    self.health.note_epoch_latency(sid, busy, n_done)
                self.engine_totals[sid] = r.engine_total
                self.engine_completed[sid] = r.engine_completed
                self.health.update(sid, r.health)
                if r.failover is not None:
                    self.failovers.append(
                        {"kind": "kill", "cluster_epoch": self.epoch,
                         "t_barrier": T, **r.failover}
                    )
                    self.resizer.note_failover(r.failover)
                    if mx is not None:
                        mx.counter("cluster_failovers").inc(1.0, T)
                        rto = r.failover.get("rto_time")
                        if rto is not None:
                            mx.histogram(
                                "cluster_failover_rto_seconds", _RTO_BUCKETS,
                                shard=str(sid),
                            ).observe(float(rto), T)
            # 9. Barrier: collect completions, migrate, credit, sweep.
            t_next = self._collect(results, T)
            if ccfg.straggler_detection:
                suspects = self.health.refresh_suspects(
                    epoch=self.epoch, now=t_next
                )
                if mx is not None:
                    mx.gauge("cluster_suspect_shards").set(
                        float(sum(suspects)), t_next
                    )
                if self.brownout is not None:
                    was = self.brownout.active
                    self.brownout.observe(
                        self.health.straggler_pressure(),
                        epoch=self.epoch, now=t_next,
                    )
                    if mx is not None and self.brownout.active != was:
                        mx.gauge("cluster_brownout_active").set(
                            1.0 if self.brownout.active else 0.0, t_next
                        )
            self.now = t_next
            self._sweep_deadlines(t_next)
            self.epoch += 1
            self.auditor.maybe_audit(self.epoch)

    # ------------------------------------------------------------ admission

    def _admit(self, T: float, open_now: list[bool]) -> None:
        """Create walks for queued queries while capacity lasts.

        Cluster capacity is the healthy shards' inflight budget; open
        breakers shrink it, the queue backs up, and the admission
        policy sheds — the router's graceful-degradation path.
        """
        live = self.resizer.routing_placement().shard_ids
        healthy = sum(1 for sid in live if not open_now[sid])
        capacity = healthy * self.ccfg.max_inflight_walks_per_shard
        rate_factor = 1.0
        if self.ccfg.resize_admission_ramp:
            # Mid-transfer, interpolate between the committed and target
            # placements' healthy capacity by handoff progress, instead
            # of stepping to the target's full budget at prepare.
            progress = self.resizer.transfer_progress()
            if progress < 1.0:
                old_ids = self.resizer.old.shard_ids
                old_healthy = sum(
                    1 for sid in old_ids
                    if sid < len(open_now) and not open_now[sid]
                )
                old_cap = old_healthy * self.ccfg.max_inflight_walks_per_shard
                ramped = old_cap + (capacity - old_cap) * progress
                if capacity > 0:
                    rate_factor *= ramped / capacity
                capacity = ramped
                self.ramp_epochs += 1
        if self.brownout is not None and self.brownout.active:
            capacity *= self.brownout.capacity_factor
            rate_factor *= self.brownout.rate_factor
        if self.ccfg.resize_admission_ramp or self.brownout is not None:
            self.queue.rate_factor = rate_factor
        inflight = self.walks_created - self.walks_done
        while len(self.queue):
            head = self.queue.peek()
            st = self.ledger.states[head.query_id]
            if st.responded:
                self.queue.pop()
                continue
            if healthy == 0 or inflight + head.num_walks > capacity:
                self.deferrals += 1
                break
            self.queue.pop()
            self._create_walks(st, T)
            inflight += head.num_walks
        self.ledger.gauge_queue(T)

    def _create_walks(self, st: QueryState, T: float) -> None:
        req = st.req
        if req.starts is not None:
            starts = np.asarray(req.starts, dtype=np.int64)
        else:
            starts = start_vertices(self.graph, req.num_walks, self._start_rng)
        # Mid-resize, new walks go straight to their *future* owners.
        owners = self.resizer.routing_placement().shard_of(starts)
        t_eligible = max(T, st.t_arrival)
        for v, owner in zip(starts.tolist(), owners.tolist()):
            wid = self.walks_created
            self.walks_created += 1
            self.walks[wid] = self.live_walks[wid] = _Walk(
                wid, req.query_id, int(v), int(req.length), int(owner),
                t_eligible,
            )

    # -------------------------------------------------------------- leasing

    def _ring_of(self, sid: int) -> VertexPlacement | None:
        """Placement whose ring holds ``sid``.

        Ring order follows the placement's slot table; a departing
        shard (still executing mid-transfer but absent from the routing
        target) falls back to the committed placement's ring.
        """
        for placement in (self.resizer.routing_placement(), self.placement):
            if sid in placement.shard_ids:
                return placement
        return None

    def _route(self, owner: int, open_now: list[bool]) -> int | None:
        """Executing shard for a lease owned by ``owner``.

        A degraded owner's leases go to its ring successor — the shard
        modeled as holding its read replica; with every shard open the
        lease defers.
        """
        if not open_now[owner]:
            return owner
        placement = self._ring_of(owner)
        if placement is None:
            return None
        for candidate in placement.ring_successors(owner):
            if not open_now[candidate]:
                self.health.reroutes[owner] += 1
                return candidate
        return None

    def _hedge_target(self, w: _Walk, host: int, open_now: list[bool],
                      suspects: list[bool]) -> int | None:
        """Ring successor to issue a hedge on.

        Eligible successors are the shards after ``host`` in ring
        order that are neither breaker-open nor themselves suspect;
        the walk id rotates deterministically through them so a
        suspect shard's duplicated load spreads across the healthy
        ring instead of turning its immediate successor into the next
        straggler."""
        placement = self._ring_of(host)
        if placement is None:
            return None
        eligible = [
            candidate
            for candidate in placement.ring_successors(host)
            if candidate != host
            and not (candidate < len(open_now) and open_now[candidate])
            and not (candidate < len(suspects) and suspects[candidate])
        ]
        if not eligible:
            return None
        return eligible[w.wid % len(eligible)]

    def _lease(self, T: float, open_now: list[bool]) -> dict[int, ShardStepCommand]:
        ccfg = self.ccfg
        budget = [ccfg.max_inflight_walks_per_shard] * self.n_phys
        # (host, t_min) -> [walk ...]; filled in deterministic wid order.
        groups: dict[tuple[int, float], list[_Walk]] = {}
        dead_prop = ccfg.deadline_propagation
        hedge_on = ccfg.hedging_enabled
        suspects = self.health.suspect if hedge_on else None
        eligible = sorted(
            (
                w for w in self.live_walks.values()
                if w.state in ("queued", "migrating") and w.eligible_at <= T
            ),
            key=lambda w: (w.eligible_at, w.wid),
        )
        for w in eligible:
            if dead_prop and self.ledger.states[w.query_id].responded:
                # The deadline already passed (or the query was shed):
                # stepping this walk can no longer change any answer, so
                # sacrifice it instead of burning shard time on it.
                self._retire_walk(w, T, sacrificed=True)
                continue
            host = self._route(w.shard, open_now)
            if host is None or budget[host] <= 0:
                if host is None:
                    self.deferrals += 1
                continue
            hedge = None
            if hedge_on and host < len(suspects) and suspects[host]:
                plan, hedge = self._plan_hedge(w, host, open_now,
                                               suspects, budget)
                if plan == "defer":
                    # The successor's lease budget is full this epoch;
                    # an unhedged lease would let the straggler drag
                    # the commit barrier, so wait one epoch instead.
                    self.hedges_deferred += 1
                    continue
            budget[host] -= 1
            w.state = "leased"
            w.leased_hops = min(ccfg.segment_hops, w.remaining)
            w.shard = host
            groups.setdefault((host, w.eligible_at), []).append(w)
            if hedge is not None:
                self._issue_hedge(w, hedge, groups, budget)
        cmds: dict[int, ShardStepCommand] = {}
        for (host, t_min) in sorted(groups):
            batch = groups[(host, t_min)]
            ids = np.array([w.wid for w in batch], dtype=np.int64)
            verts = np.array([w.vertex for w in batch], dtype=np.int64)
            hops = np.array([w.leased_hops for w in batch], dtype=np.int64)
            cmd = cmds.setdefault(host, ShardStepCommand(epoch=self.epoch))
            cmd.batches.append((t_min, ids, verts, hops))
            self.segments_injected[host] += len(batch)
        return cmds

    def _plan_hedge(
        self, w: _Walk, host: int, open_now: list[bool],
        suspects: list[bool], budget: list[int],
    ) -> tuple[str, int | None]:
        """Decide how to lease to a suspect shard.

        Returns ``("hedge", successor)`` when a duplicate can be
        issued, ``("defer", None)`` when the successor's lease budget
        is exhausted for this epoch (transient — retry next barrier),
        and ``("bare", None)`` when hedging is permanently pointless
        for this walk (no viable successor, the hedge cannot beat the
        query deadline, or the query's retry budget ran out) — then
        the lease proceeds unhedged so the walk still makes progress.
        """
        ccfg = self.ccfg
        st = self.ledger.states[w.query_id]
        if ccfg.deadline_propagation and (
            w.eligible_at + ccfg.hedge_delay > st.deadline_abs
        ):
            # The hedge could not finish in time anyway; don't pay for it.
            self.hedges_deferred += 1
            return "bare", None
        if st.retry_budget is not None and st.retry_budget <= 0:
            self.ledger.exhaust_budget(st, self.now)
            self.hedges_deferred += 1
            return "bare", None
        hedge = self._hedge_target(w, host, open_now, suspects)
        if hedge is None:
            self.hedges_deferred += 1
            return "bare", None
        if budget[hedge] <= 0:
            return "defer", None
        return "hedge", hedge

    def _issue_hedge(self, w: _Walk, hedge: int,
                     groups: dict[tuple[int, float], list[_Walk]],
                     budget: list[int]) -> None:
        """Speculatively re-issue a suspect shard's lease to its ring
        successor.  The duplicate boards ``hedge_delay`` after the
        primary; the barrier commits whichever completion lands first
        and discards the other (exactly-one-commit, audited)."""
        st = self.ledger.states[w.query_id]
        budget[hedge] -= 1
        if st.retry_budget is not None:
            st.retry_budget -= 1
            if st.retry_budget <= 0:
                self.ledger.exhaust_budget(st, self.now)
        w.hedge_shard = hedge
        self.hedges_issued += 1
        groups.setdefault((hedge, w.eligible_at + self.ccfg.hedge_delay),
                          []).append(w)
        mx = self.telemetry
        if mx is not None:
            mx.counter("cluster_hedges_issued").inc(1.0, w.eligible_at)

    # -------------------------------------------------------------- barrier

    def _collect(self, results: dict, T: float) -> float:
        """The barrier commit loop: commit one completion per walk,
        then retire, requeue or migrate it.  Returns the barrier time.

        An unhedged lease has one completion and a hedged one two; the
        earliest ``(t_done, shard)`` wins and the loser is billed as
        hedge-wasted work.  Both copies land in the same barrier
        (engines drain fully each epoch, audited), so the win is a
        deterministic min, not a race.  Unhedged walks commit when the
        last stepped shard drains; hedged walks commit at their winning
        completion, so a hedge loser still draining on a straggler
        never holds the clock back.
        """
        # Mid-resize the routing (target) placement decides migration
        # destinations, so collected walks flow to their future owners
        # instead of bouncing through the outgoing map.
        placement = self.resizer.routing_placement()
        hedged = self.ccfg.hedging_enabled
        dead_prop = self.ccfg.deadline_propagation
        t_drain = max([T, *(r.t_end for r in results.values())])
        # Pass 1: each walk's candidates (t_done, shard, vertex, owner),
        # walks in first-seen order.
        pending: dict[int, list[tuple[float, int, int, int]]] = {}
        for sid in sorted(results):
            for t_done, ids, verts in results[sid].completions:
                owners = placement.shard_of(verts)
                self.segments_collected[sid] += len(ids)
                for wid, v, owner in zip(
                    ids.tolist(), verts.tolist(), owners.tolist()
                ):
                    w = self.walks[wid]
                    if w.state != "leased" or sid not in (w.shard, w.hedge_shard):
                        raise SimulationError(
                            f"walk {wid} completed on shard {sid} but is "
                            f"{w.state} on shard {w.shard} "
                            f"(hedge {w.hedge_shard})"
                        )
                    pending.setdefault(wid, []).append(
                        (float(t_done), sid, v, owner)
                    )
        # Pass 2: commit each walk's winner.
        migrating: dict[tuple[int, int], list[_Walk]] = {}
        t_barrier = T
        for wid, cands in pending.items():
            w = self.walks[wid]
            expected = 1 if w.hedge_shard is None else 2
            if len(cands) != expected:
                raise SimulationError(
                    f"walk {wid}: {len(cands)} completions for "
                    f"{expected} outstanding leases"
                )
            t_win, sid, v, owner = min(cands)
            if w.hedge_shard is not None:
                self.hedge_wasted_segments += 1
                if sid == w.shard:
                    self.hedge_wins_primary += 1
                else:
                    self.hedge_wins_hedge += 1
                w.hedge_shard = None
            t = t_win if hedged else t_drain
            t_barrier = max(t_barrier, t)
            w.remaining -= w.leased_hops
            w.leased_hops = 0
            w.vertex = v
            w.shard = sid
            self.segments_committed += 1
            if w.remaining <= 0:
                self._retire_walk(w, t, sacrificed=False)
            elif dead_prop and self.ledger.states[w.query_id].responded:
                # The query is already answered, so don't requeue (or
                # worse, migrate) a walk whose result nobody will read.
                self._retire_walk(w, t, sacrificed=True)
            elif owner == sid:
                w.state = "queued"
                w.eligible_at = t
            else:
                w.state = "migrating"
                w.migrations += 1
                migrating.setdefault((sid, owner), []).append(w)
        self._transmit_migrations(migrating, t_barrier)
        self._note_barrier_telemetry(t_barrier)
        return t_barrier

    def _transmit_migrations(
        self, migrating: dict[tuple[int, int], list[_Walk]], t_next: float
    ) -> None:
        mx = self.telemetry
        states = self.ledger.states
        budgeted = (
            self.ccfg.deadline_propagation and self.ccfg.query_retry_budget > 0
        )
        for (src, dst) in sorted(migrating):
            batch = migrating[(src, dst)]
            cap = None
            if budgeted:
                # The batch retries as one message, so its retransmit
                # allowance is the tightest member query's remainder.
                rems = [
                    states[w.query_id].retry_budget
                    for w in batch
                    if states[w.query_id].retry_budget is not None
                ]
                if rems:
                    cap = max(0, min(rems))
            delivery = self.link.transmit(t_next, len(batch), max_retries=cap)
            if budgeted and self.link.last_retransmits:
                used = self.link.last_retransmits
                for w in batch:
                    st = states[w.query_id]
                    if st.retry_budget is None:
                        continue
                    st.retry_budget = max(0, st.retry_budget - used)
                    if st.retry_budget <= 0:
                        self.ledger.exhaust_budget(st, self.now)
            self.migrations_out[src] += len(batch)
            self.migrations_in[dst] += len(batch)
            if mx is not None:
                mx.counter("cluster_migrations", shard=str(src)).inc(
                    float(len(batch)), t_next
                )
            for w in batch:
                w.shard = dst
                w.eligible_at = delivery

    def _note_barrier_telemetry(self, t_next: float) -> None:
        mx = self.telemetry
        if mx is not None:
            # Link counters are cumulative on the link; credit the
            # barrier's delta so the series shows retransmit storms.
            d_msg = self.link.messages - self._link_messages_seen
            d_rtx = self.link.retransmits - self._link_retransmits_seen
            self._link_messages_seen = self.link.messages
            self._link_retransmits_seen = self.link.retransmits
            if d_msg:
                mx.counter("cluster_link_messages").inc(float(d_msg), t_next)
            if d_rtx:
                mx.counter("cluster_link_retransmits").inc(float(d_rtx), t_next)
            mx.gauge("cluster_walks_inflight").set(
                float(self.walks_created - self.walks_done), t_next
            )

    def _retire_walk(self, w: _Walk, t: float, *, sacrificed: bool) -> None:
        """Mark ``w`` done at ``t`` and credit it to its query."""
        w.state = "done"
        del self.live_walks[w.wid]
        self.walks_done += 1
        if sacrificed:
            self.walks_sacrificed += 1
        self._credit(w, t, sacrificed=sacrificed)

    def _credit(self, w: _Walk, t: float, *, sacrificed: bool = False) -> None:
        # Hedged commits land at their winning completion times, which
        # are not monotone in processing order (nor across barriers), so
        # a query is finished at its *latest* credit, not its last one.
        # Sacrificed walks ran for an answered query by the router's
        # choice, so they are not zombies.
        qid = w.query_id
        t_last = self._last_credit[qid] = max(self._last_credit.get(qid, 0.0), t)
        self.ledger.credit(
            self.ledger.states[qid], 1, t_last, zombie=not sacrificed
        )

    def _sweep_deadlines(self, t: float) -> None:
        states = self.ledger.states
        for qid in sorted(states):
            st = states[qid]
            if not st.responded and st.deadline_abs <= t:
                # Answered *at* the deadline with whatever finished.
                self.ledger.respond(st, "timed_out", st.deadline_abs)

    # ------------------------------------------------------------- idle time

    def _finished(self, next_arrival: int, n_arrivals: int) -> bool:
        if next_arrival < n_arrivals or len(self.queue):
            return False
        if self.resizer.active():
            return False
        if self.live_walks:
            return False
        return not self.ledger.pending()

    def _advance_clock(self, T: float, arrivals, next_arrival: int,
                       open_now: list[bool]) -> float:
        candidates: list[float] = []
        if next_arrival < len(arrivals):
            candidates.append(arrivals[next_arrival][0])
        t_resize = self.resizer.next_event_after(T)
        if t_resize is not None:
            candidates.append(t_resize)
        for w in self.walks.values():
            if w.state in ("queued", "migrating") and w.eligible_at > T:
                candidates.append(w.eligible_at)
        if any(open_now):
            # A mid-resize deferred handoff batch is blocked work too:
            # its destination's breaker reopening is the next event.
            blocked = any(
                w.state in ("queued", "migrating") and w.eligible_at <= T
                for w in self.walks.values()
            ) or len(self.queue) or self.resizer.active()
            if blocked:
                candidates.extend(
                    b.open_until
                    for b, o in zip(self.health.breakers, open_now)
                    if o and b.open_until > T
                )
        candidates = [c for c in candidates if c > T]
        if not candidates:
            raise SimulationError(
                f"cluster deadlock at t={T:.6g}s: no step commands and "
                "no future event to advance to"
            )
        return min(candidates)

    # --------------------------------------------------------------- report

    def _service_section(self) -> dict:
        block = self.ledger.report()
        return {
            "requests": block.pop("requests"),
            "walks": {
                "created": self.walks_created,
                "done": self.walks_done,
                "zombie": self.ledger.zombie_walks,
            },
            **block,
            "deferrals": self.deferrals,
        }

    def _build_report(self, shard_reports: list[dict], *, jobs: int) -> dict:
        rtos = [f["rto_time"] for f in self.failovers if "rto_time" in f]
        migrations_total = int(sum(self.migrations_out))
        per_walk = [w.migrations for w in self.walks.values()]
        rz = self.resizer.stats()
        shard_rows = [
            {
                "shard": i,
                "epochs_stepped": self.epochs_stepped[i],
                "segments_injected": self.segments_injected[i],
                "migrations_out": self.migrations_out[i],
                "migrations_in": self.migrations_in[i],
                "handoffs_out": self.handoffs_out[i],
                "handoffs_in": self.handoffs_in[i],
                "retired": i in self.health.retired,
            }
            for i in range(self.n_phys)
        ]
        gray = {
            "walks_sacrificed": self.walks_sacrificed,
            "retry_budget_exhausted": self.ledger.retry_budget_exhausted,
            "stragglers": {
                "suspect_epochs": list(self.health.suspect_epochs),
                "transitions": self.health.suspect_transitions,
            },
            "hedging": {
                "issued": self.hedges_issued,
                "wins_primary": self.hedge_wins_primary,
                "wins_hedge": self.hedge_wins_hedge,
                "wasted_segments": self.hedge_wasted_segments,
                "deferred": self.hedges_deferred,
                "segments_committed": self.segments_committed,
                "wasted_work_rate": (
                    self.hedge_wasted_segments / self.segments_committed
                    if self.segments_committed else 0.0
                ),
            },
            "admission_ramp": {"epochs": self.ramp_epochs},
        }
        if self.brownout is not None:
            gray["brownout"] = self.brownout.stats()
        cluster = {
            "epochs": self.epoch,
            "placement": self.ccfg.placement,
            "segment_hops": self.ccfg.segment_hops,
            "barrier_time": self.now,
            "shards": shard_rows,
            "migrations": {
                "total": migrations_total,
                "max_per_walk": int(max(per_walk, default=0)),
                "mean_per_walk": (
                    float(sum(per_walk)) / len(per_walk) if per_walk else 0.0
                ),
            },
            "link": self.link.stats(),
            "health": self.health.stats(),
            "failovers": self.failovers,
            # Kill failovers are listed under "failovers"; nothing
            # promotes on breaker state, so this list stays empty until
            # the next cluster-report schema change.
            "promotions": [],
            "kills_unfired": [list(k) for k in self.kills_unfired],
            "rto": {
                "count": len(rtos),
                "max": float(max(rtos, default=0.0)),
                "mean": float(sum(rtos) / len(rtos)) if rtos else 0.0,
            },
            "audit": self.auditor.stats(),
            "membership": {
                "initial_shards": self.ccfg.n_shards,
                "live_shards": list(self.placement.shard_ids),
                "retired_shards": sorted(self.health.retired),
                "placement": self.placement.describe(),
                "window_loads": self.health.window_loads(range(self.n_phys)),
            },
            "resizes": rz["resizes"],
            "resizes_unfired": rz["unfired"],
            "handoff": rz["handoff"],
            "gray": gray,
        }
        if self.telemetry is not None:
            # Inside the "cluster" section on purpose: the baseline gate
            # compares killed vs uninterrupted runs with this section
            # dropped, and failover telemetry legitimately differs.
            cluster["telemetry"] = self.telemetry.section(self.now)
        return {
            "schema": CLUSTER_SCHEMA,
            "schema_version": CLUSTER_SCHEMA_VERSION,
            "seed": self.seed,
            "n_shards": self.ccfg.n_shards,
            "jobs": jobs,
            "t0": self._t0,
            "service": self._service_section(),
            "responses": [
                {
                    "query_id": r.query_id,
                    "status": r.status,
                    "walks_requested": r.walks_requested,
                    "walks_completed": r.walks_completed,
                    "finish_time": r.finish_time,
                    "latency": r.latency,
                    "shed_reason": r.shed_reason,
                }
                for r in self.ledger.responses
            ],
            "shards": shard_reports,
            "cluster": cluster,
        }
