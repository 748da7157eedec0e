"""The always-on walk query service.

:class:`WalkQueryService` wraps a :class:`~repro.core.flashwalker.FlashWalker`
in a deterministic, simulated-time serving loop: queries arrive on an
open-loop schedule, pass the admission queue and circuit breaker, and
are injected into the engine as walk batches whose ``src`` field carries
the query id (the engine never reads ``src`` as a graph index, so it is
a free attribution channel).  Completions are credited back to queries
by a completion hook; a deadline event per admitted query enforces
partial-result semantics — when it fires first, the query is answered
with however many walks finished, flagged ``timed_out``, and its
remaining walks run to completion in the background without disturbing
other in-flight queries.  An online auditor (:mod:`repro.service.audit`)
cross-checks conservation invariants as the run progresses.

Everything is simulator-event driven, so two runs with the same seed
and request schedule produce identical responses, shed decisions, and
SLO metrics.

With the durability layer on (``DurabilityConfig.enabled``), service
runs survive power loss too: the service packs its own bookkeeping into
every engine checkpoint via the ``_checkpoint_extra`` hook, and
:meth:`WalkQueryService.resume` restores it alongside the engine state,
re-schedules undelivered arrivals and live deadlines, and replays to
completion — in-flight queries at the crash are served from the
recovered timeline rather than dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import SimulationError
from ..common.state import Stateful
from ..core.metrics import RunResult
from ..obs.alerts import default_service_rules
from ..walks.spec import WalkSpec, start_vertices
from ..walks.state import WalkSet
from .audit import ServiceAuditor
from .breaker import CircuitBreaker
from .brownout import BrownoutController
from .config import ServiceConfig
from .queue import AdmissionQueue
from .request import (
    QueryLedger,
    QueryRequest,
    QueryResult,
    QueryState,
    arrival_order,
)

__all__ = ["ServiceOutcome", "WalkQueryService"]

#: Fixed query-latency histogram bounds (simulated seconds); spans the
#: sub-millisecond deadlines the SLO suite exercises up to whole-run
#: scale so the overflow bucket only catches pathological stragglers.
_LATENCY_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
)


@dataclass
class ServiceOutcome:
    """What one service run produced.

    ``result`` is the engine's :class:`~repro.core.metrics.RunResult`
    with the SLO section attached (``result.service``); ``responses``
    holds one :class:`QueryResult` per request in response order.
    """

    result: RunResult
    responses: list[QueryResult] = field(default_factory=list)

    def by_id(self) -> dict[int, QueryResult]:
        return {r.query_id: r for r in self.responses}


class WalkQueryService(Stateful):
    """Serve walk queries against one engine under simulated time."""

    # The request schedule, the walk accounting the auditor
    # cross-checks against the engine, and the admission components;
    # the ledger carries the queries, their answers and the queue.
    STATE = ("_requests", "walks_injected", "deferrals", "_recent_misses", "_t0")
    PARTS = ("ledger", "breaker", "brownout")

    def __init__(self, fw, cfg: ServiceConfig | None = None):
        self.fw = fw
        self.cfg = (cfg or ServiceConfig()).validate()
        self.queue = AdmissionQueue.from_config(self.cfg)
        # The engine rebuilds its telemetry registry on every session
        # reset, so the ledger fetches it per use.
        self.ledger = QueryLedger(
            "service", self.queue, self.cfg.query_retry_budget,
            lambda: self.fw.telemetry, self._on_respond,
        )
        self.breaker = CircuitBreaker(self.cfg, fw)
        self.auditor = ServiceAuditor(self, self.cfg.audit_interval_events)
        self.walks_injected = 0
        self.deferrals = 0
        self.brownout = BrownoutController.from_config(self.cfg)
        self._recent_misses = (
            deque(maxlen=self.cfg.brownout_window)
            if self.brownout is not None else None
        )
        #: Pending deadline event per admitted, unanswered query.
        self._deadline_events: dict[int, object] = {}
        self._t0 = 0.0
        self._dispatch_scheduled = False
        self._retry_scheduled = False
        self._requests: list[QueryRequest] = []
        #: Optional hook ``fn(fw, t0)`` called after session setup and
        #: before the event loop runs; test scaffolding uses it to
        #: schedule deliberate state corruption the auditor must catch.
        self.on_session_start = None

    @property
    def _rng(self):
        # Looked up per use, never cached: a checkpoint restore rebuilds
        # the registry's generators, so a held reference would keep
        # drawing from the crashed timeline's (stale) generator.
        return self.fw.rngs.stream("service")

    # ------------------------------------------------------------------- run

    def run(
        self, requests: list[QueryRequest], max_events: int | None = None
    ) -> ServiceOutcome:
        """Serve ``requests`` to completion; returns the outcome.

        Arrival offsets are relative to service readiness (hot-block
        preload done).  Raises
        :class:`~repro.common.errors.InvariantViolation` if the online
        auditor finds corrupted accounting at any point, and
        :class:`~repro.common.errors.PowerLossError` if a scheduled
        power loss fires mid-run (call :meth:`resume` to recover).
        """
        ordered = arrival_order(requests, self.cfg.max_walk_length)
        self._requests = ordered
        fw = self.fw
        expected = sum(r.num_walks for r in ordered)
        self._t0 = fw.start_session(
            WalkSpec(length=self.cfg.max_walk_length), expected_walks=expected
        )
        # start_session rebuilt the registry, so the SLO burn-rate rules
        # are re-armed here, once per serving session.
        if fw.telemetry is not None:
            fw.telemetry.add_rules(default_service_rules())
        fw._on_completed = self._on_completed
        fw._checkpoint_extra = self.state
        try:
            for req in ordered:
                fw.sim.at(self._t0 + req.arrival, self._arrive, req)
            if self.on_session_start is not None:
                self.on_session_start(fw, self._t0)
            fw.sim.run(max_events=max_events)
            self.auditor.audit(final=True)
        finally:
            fw._on_completed = None
        result = fw._finalize_run()
        result.service = self._service_section()
        return ServiceOutcome(result=result, responses=list(self.ledger.responses))

    # ------------------------------------------------------------- durability

    # ``state()`` is wired as ``fw._checkpoint_extra``.  Request and
    # response objects are never mutated after creation, so they are
    # shared; deadline events are not captured (:meth:`resume`
    # schedules fresh ones).

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._deadline_events = {}
        if self.brownout is not None:
            self.queue.rate_factor = self.brownout.admit_rate_factor()

    def resume(
        self, max_events: int | None = None, checkpoint=None
    ) -> ServiceOutcome:
        """Recover a service run interrupted by power loss.

        Restores both the engine and the service's own bookkeeping
        packed alongside it from ``checkpoint`` (default: the engine's
        latest; a checkpoint of another engine of the same
        configuration resumes here too), re-schedules the arrival
        events of requests the crashed timeline had not delivered yet
        and the deadline events of still-pending queries, then replays
        to completion.  In-flight queries at the crash survive: their
        walks resume from the recovered buffers and are credited back
        as usual.  The outcome carries the crash's RPO/RTO accounting
        under ``result.durability["recovery"]``; audit cadence restarts
        at the restore point, so audit *counts* are a documented
        recovery variant while responses and SLO metrics are not.
        """
        fw = self.fw
        snap = checkpoint if checkpoint is not None else fw.latest_checkpoint
        if snap is None:
            raise SimulationError(
                "no checkpoint available to recover the service from "
                "(cold restart required)"
            )
        ctx = fw._crash_context(snap)
        fw.restore_for_resume(snap)
        extra = fw._restored_extra
        if extra is None:
            raise SimulationError(
                "checkpoint carries no service state; was it taken by a "
                "plain batch run?"
            )
        self.restore(extra)
        now = fw.sim.now
        if fw.telemetry is not None:
            fw.telemetry.add_rules(default_service_rules())
        fw._on_completed = self._on_completed
        fw._checkpoint_extra = self.state
        # Audit cadence restarts on the recovered timeline; the event
        # counter itself restarted with the simulator.
        self.auditor._last_audit_events = 0
        self.auditor._last_now = now
        self._dispatch_scheduled = False
        self._retry_scheduled = False
        states = self.ledger.states
        try:
            for req in self._requests:
                if req.query_id not in states:
                    fw.sim.at(max(now, self._t0 + req.arrival), self._arrive, req)
            for qid in self.ledger.pending():
                self._deadline_events[qid] = fw.sim.at(
                    max(now, states[qid].deadline_abs), self._deadline, qid
                )
            self._schedule_dispatch()
            fw._kick_chips(now)
            fw._service_barriers(now)
            fw.sim.run(max_events=max_events)
            self.auditor.audit(final=True)
        finally:
            fw._on_completed = None
        result = fw._finalize_run()
        result.service = self._service_section()
        if result.durability is not None:
            result.durability = dict(result.durability, recovery=ctx)
        return ServiceOutcome(result=result, responses=list(self.ledger.responses))

    # ------------------------------------------------------------ admission

    def _arrive(self, req: QueryRequest) -> None:
        t = self.fw.sim.now
        st = self.ledger.arrive(req, t)
        if (
            self.cfg.breaker_enabled
            and self.cfg.breaker_policy == "shed"
            and self.breaker.is_open(t)
        ):
            self.ledger.respond(st, "shed", t, "breaker-open")
        elif self.ledger.admit(st, t):
            self._deadline_events[req.query_id] = self.fw.sim.at(
                st.deadline_abs, self._deadline, req.query_id
            )
            self._schedule_dispatch()
        self.auditor.maybe_audit()

    # ------------------------------------------------------------- dispatch

    def _schedule_dispatch(self) -> None:
        """Coalesce dispatch work into one same-time simulator event.

        The engine's event loop is non-reentrant, so arrival/completion
        handlers never inject walks directly; they schedule this event
        at the current time instead.
        """
        if self._dispatch_scheduled:
            return
        self._dispatch_scheduled = True
        self.fw.sim.at(self.fw.sim.now, self._dispatch_event)

    def _dispatch_event(self) -> None:
        self._dispatch_scheduled = False
        self._dispatch(self.fw.sim.now)

    def _dispatch(self, t: float) -> None:
        fw = self.fw
        ledger = self.ledger
        while len(self.queue):
            head = self.queue.peek()
            st = ledger.states[head.query_id]
            if st.responded:
                # Timed out or shed while queued; nothing to inject.
                self.queue.pop()
                continue
            if self.cfg.breaker_enabled and self.cfg.breaker_policy == "defer":
                if self.breaker.is_open(t):
                    if st.retry_budget is not None and (
                        self.breaker.open_until < st.deadline_abs
                    ):
                        # A reopen retry that can still land before the
                        # deadline charges the head query's budget; one
                        # past the deadline cannot change the answer,
                        # so it is never charged (the deadline event
                        # owns that query).
                        if st.retry_budget <= 0:
                            ledger.exhaust_budget(st, t)
                            self.queue.pop()
                            ledger.respond(st, "shed", t, "retry-budget-exhausted")
                            continue
                        st.retry_budget -= 1
                    self.deferrals += 1
                    self._schedule_retry(self.breaker.open_until)
                    break
            backlog = fw.total_walks - fw.completed_walks
            inflight_cap = self.cfg.max_inflight_walks
            if self.brownout is not None and self.brownout.active:
                inflight_cap = max(
                    1, int(inflight_cap * self.brownout.capacity_factor)
                )
            if backlog > 0 and backlog + head.num_walks > inflight_cap:
                # Backpressure: completions re-trigger dispatch.
                break
            self.queue.pop()
            if head.starts is not None:
                starts = np.asarray(head.starts, dtype=np.int64)
            else:
                starts = start_vertices(fw.graph, head.num_walks, self._rng)
            walks = WalkSet.start(starts, head.length)
            # src is never used as a graph index by the engine; carry
            # the query id so completions credit back to their query.
            walks.src[:] = head.query_id
            self.walks_injected += head.num_walks
            fw.inject_walks(walks)
        ledger.gauge_queue(t)
        self.auditor.maybe_audit()

    def _schedule_retry(self, at: float) -> None:
        """Re-run dispatch once the breaker cooldown elapses.

        Without this, a deferred queue would starve when the engine
        drains (no completion event would ever re-trigger dispatch).
        """
        if self._retry_scheduled:
            return
        self._retry_scheduled = True
        self.fw.sim.at(max(at, self.fw.sim.now), self._retry)

    def _retry(self) -> None:
        self._retry_scheduled = False
        self._schedule_dispatch()

    # ---------------------------------------------------------- completions

    def _on_completed(self, t: float, walks: WalkSet | list) -> None:
        """Engine hook: credit finished walks (records or a WalkSet) back
        to their queries, in ascending query id order.

        ``t`` may lie slightly ahead of ``sim.now`` (chip batches charge
        their full busy span up front), so a completion past the
        deadline is left for the deadline event to answer as a partial
        result.
        """
        if not len(walks):
            return
        tally: dict[int, int] = {}
        for qid in [r[0] for r in walks] if type(walks) is list else walks.src.tolist():
            tally[qid] = tally.get(qid, 0) + 1
        states = self.ledger.states
        for qid, n in sorted(tally.items()):
            # Walks of an already-answered (timed out) query run to
            # completion in the background and count as zombies.
            self.ledger.credit(states[qid], n, t)
        if len(self.queue):
            self._schedule_dispatch()
        self.auditor.maybe_audit()

    def _deadline(self, query_id: int) -> None:
        del self._deadline_events[query_id]
        st = self.ledger.states[query_id]
        if st.responded:
            return
        self.ledger.respond(st, "timed_out", self.fw.sim.now)
        # Freed deadline headroom does not add capacity, but queued
        # work may have been blocked purely on this query's backlog.
        if len(self.queue):
            self._schedule_dispatch()

    # ------------------------------------------------------------ responses

    def _on_respond(self, st: QueryState, result: QueryResult) -> None:
        """Ledger hook: what an answer means to this service beyond its
        count (deadline cancel, run counters, latency, brownout)."""
        event = self._deadline_events.pop(st.req.query_id, None)
        if event is not None:
            self.fw.sim.cancel(event)
        status, t = result.status, result.finish_time
        self.fw.metrics.stats.counter(f"svc_queries_{status}").add(1)
        mx = self.fw.telemetry
        if mx is not None and status != "shed":
            mx.histogram("service_latency_seconds",
                         _LATENCY_BUCKETS).observe(result.latency, t)
        if self.brownout is not None:
            # Deadline misses are the service's gray-failure pressure
            # signal; sheds are excluded (they are the brownout's own
            # output, and feeding them back would latch it on).
            self._recent_misses.append(1 if status == "timed_out" else 0)
            pressure = sum(self._recent_misses) / len(self._recent_misses)
            was = self.brownout.active
            self.brownout.observe(
                pressure, epoch=len(self.ledger.responses), now=t
            )
            self.queue.rate_factor = self.brownout.admit_rate_factor()
            if mx is not None and self.brownout.active != was:
                mx.gauge("service_brownout_active").set(
                    1.0 if self.brownout.active else 0.0, t
                )

    # --------------------------------------------------------------- report

    def _service_section(self) -> dict:
        ledger = self.ledger
        block = ledger.report()
        requests = block.pop("requests")
        section = {
            "requests": {
                **requests,
                # Every missed deadline is answered timed-out, so the
                # two counts are one.
                "deadline_misses": requests["timed_out"],
                "retry_budget_exhausted": ledger.retry_budget_exhausted,
            },
            "walks": {
                "injected": self.walks_injected,
                "zombie": ledger.zombie_walks,
            },
            **block,
            "breaker": {**self.breaker.stats(), "deferrals": self.deferrals},
            "audit": self.auditor.stats(),
        }
        if self.brownout is not None:
            section["brownout"] = self.brownout.stats()
        return section
