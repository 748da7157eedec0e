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

from dataclasses import dataclass, field, replace

import numpy as np

from ..common.errors import ConfigError, SimulationError
from ..common.state import Stateful
from ..core.metrics import RunResult
from ..obs.alerts import default_service_rules
from ..walks.spec import WalkSpec, start_vertices
from ..walks.state import WalkSet
from .audit import ServiceAuditor
from .breaker import CircuitBreaker
from .config import ServiceConfig
from .queue import AdmissionQueue
from .request import QueryRequest, QueryResult, latency_summary

__all__ = ["ServiceOutcome", "WalkQueryService"]

#: Fixed query-latency histogram bounds (simulated seconds); spans the
#: sub-millisecond deadlines the SLO suite exercises up to whole-run
#: scale so the overflow bucket only catches pathological stragglers.
_LATENCY_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
)


@dataclass
class _QueryState:
    """Mutable per-query bookkeeping while a request is live."""

    req: QueryRequest
    t_arrival: float
    deadline_abs: float
    walks_done: int = 0
    injected: bool = False
    responded: bool = False
    deadline_event: object | None = None
    #: Breaker-reopen retries left (None when budgets are off).
    retry_budget: int | None = None


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

    # The request schedule, the accounting the auditor cross-checks
    # against the engine, the response log and the admission
    # components; per-query bookkeeping is added by :meth:`state`.
    STATE = (
        "_requests",
        "responses",
        "arrivals",
        "ok_count",
        "timed_out_count",
        "shed_count",
        "walks_injected",
        "zombie_walks",
        "deadline_misses",
        "deferrals",
        "retry_budget_exhausted",
        "_recent_misses",
        "_t0",
    )
    PARTS = ("queue", "breaker", "brownout")

    def __init__(self, fw, cfg: ServiceConfig | None = None):
        self.fw = fw
        self.cfg = (cfg or ServiceConfig()).validate()
        self.queue = AdmissionQueue(
            self.cfg.queue_capacity,
            self.cfg.admission_policy,
            self.cfg.rate_limit_qps,
            self.cfg.rate_limit_burst,
        )
        self.breaker = CircuitBreaker(self.cfg, fw)
        self.auditor = ServiceAuditor(self, self.cfg.audit_interval_events)
        self.states: dict[int, _QueryState] = {}
        self.responses: list[QueryResult] = []
        # Accounting the auditor cross-checks against the engine.
        self.arrivals = 0
        self.ok_count = 0
        self.timed_out_count = 0
        self.shed_count = 0
        self.walks_injected = 0
        self.zombie_walks = 0
        self.deadline_misses = 0
        self.deferrals = 0
        self.retry_budget_exhausted = 0
        if self.cfg.brownout_enabled:
            from collections import deque

            from .brownout import BrownoutController

            self.brownout = BrownoutController(
                enter_pressure=self.cfg.brownout_enter_pressure,
                exit_pressure=self.cfg.brownout_exit_pressure,
                capacity_factor=self.cfg.brownout_capacity_factor,
                rate_factor=self.cfg.brownout_rate_factor,
            )
            self._recent_misses = deque(maxlen=self.cfg.brownout_window)
        else:
            self.brownout = None
            self._recent_misses = None
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

    @property
    def _mx(self):
        # Same discipline as ``_rng``: the engine rebuilds its metrics
        # registry on every session reset, so it is fetched per use.
        # None when the engine runs without telemetry.
        return self.fw.telemetry

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
        if not requests:
            raise ConfigError("no requests to serve")
        seen: set[int] = set()
        for req in requests:
            req.validate()
            if req.query_id in seen:
                raise ConfigError(f"duplicate query_id {req.query_id}")
            seen.add(req.query_id)
            if req.length > self.cfg.max_walk_length:
                raise ConfigError(
                    f"query {req.query_id}: length {req.length} exceeds the "
                    f"service max_walk_length {self.cfg.max_walk_length}"
                )
        ordered = sorted(requests, key=lambda r: (r.arrival, r.query_id))
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
        return ServiceOutcome(result=result, responses=list(self.responses))

    # ------------------------------------------------------------- durability

    def state(self) -> dict:
        """Service bookkeeping packed into each engine checkpoint.

        Wired as ``fw._checkpoint_extra``.  Request and response objects
        are never mutated after creation, so they are shared; each
        query's bookkeeping is copied, less its pending deadline event
        (:meth:`resume` schedules a fresh one).
        """
        return {
            **super().state(),
            "states": [
                replace(st, deadline_event=None) for st in self.states.values()
            ],
        }

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.states = {st.req.query_id: replace(st) for st in state["states"]}
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
        try:
            for req in self._requests:
                if req.query_id not in self.states:
                    fw.sim.at(max(now, self._t0 + req.arrival), self._arrive, req)
            for st in self.states.values():
                if not st.responded:
                    st.deadline_event = fw.sim.at(
                        max(now, st.deadline_abs), self._deadline, st.req.query_id
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
        return ServiceOutcome(result=result, responses=list(self.responses))

    # ------------------------------------------------------------ admission

    def _arrive(self, req: QueryRequest) -> None:
        t = self.fw.sim.now
        self.arrivals += 1
        mx = self._mx
        if mx is not None:
            mx.counter("service_arrivals").inc(1.0, t)
        st = _QueryState(req=req, t_arrival=t, deadline_abs=t + req.deadline)
        if self.cfg.query_retry_budget > 0:
            st.retry_budget = self.cfg.query_retry_budget
        self.states[req.query_id] = st
        if (
            self.cfg.breaker_enabled
            and self.cfg.breaker_policy == "shed"
            and self.breaker.is_open(t)
        ):
            self._respond(st, "shed", t, shed_reason="breaker-open", admitted=False)
            self.auditor.maybe_audit()
            return
        admitted, evicted, refusal = self.queue.offer(req, t)
        if evicted is not None:
            ev = self.states[evicted.query_id]
            self._respond(ev, "shed", t, shed_reason="shed-oldest", admitted=True)
        if not admitted:
            self._respond(st, "shed", t, shed_reason=refusal, admitted=False)
            self.auditor.maybe_audit()
            return
        if mx is not None:
            mx.gauge("service_queue_depth").set(float(len(self.queue)), t)
        st.deadline_event = self.fw.sim.at(
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
        while len(self.queue):
            head = self.queue.peek()
            st = self.states[head.query_id]
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
                            self.retry_budget_exhausted += 1
                            mx = self._mx
                            if mx is not None:
                                mx.counter(
                                    "service_retry_budget_exhausted"
                                ).inc(1.0, t)
                            self.queue.pop()
                            self._respond(
                                st, "shed", t,
                                shed_reason="retry-budget-exhausted",
                                admitted=True,
                            )
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
            st.injected = True
            self.walks_injected += head.num_walks
            fw.inject_walks(walks)
        mx = self._mx
        if mx is not None:
            mx.gauge("service_queue_depth").set(float(len(self.queue)), t)
        self.auditor.maybe_audit()

    def _schedule_retry(self, at: float) -> None:
        """Re-run dispatch once the breaker cooldown elapses.

        Without this, a deferred queue would starve when the engine
        drains (no completion event would ever re-trigger dispatch).
        """
        if self._retry_scheduled:
            return
        self._retry_scheduled = True
        at = max(at, self.fw.sim.now)

        def retry():
            self._retry_scheduled = False
            self._schedule_dispatch()

        self.fw.sim.at(at, retry)

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
        for qid, n in sorted(tally.items()):
            st = self.states[qid]
            st.walks_done += n
            if st.responded:
                # Walks of an already-answered (timed out) query running
                # to completion in the background.
                self.zombie_walks += n
            elif st.walks_done >= st.req.num_walks and t <= st.deadline_abs:
                self._respond(st, "ok", t, admitted=True)
        if len(self.queue):
            self._schedule_dispatch()
        self.auditor.maybe_audit()

    def _deadline(self, query_id: int) -> None:
        st = self.states[query_id]
        st.deadline_event = None
        if st.responded:
            return
        self.deadline_misses += 1
        mx = self._mx
        if mx is not None:
            mx.counter("service_deadline_misses").inc(1.0, self.fw.sim.now)
        self._respond(st, "timed_out", self.fw.sim.now, admitted=True)
        # Freed deadline headroom does not add capacity, but queued
        # work may have been blocked purely on this query's backlog.
        if len(self.queue):
            self._schedule_dispatch()

    # ------------------------------------------------------------ responses

    def _respond(
        self,
        st: _QueryState,
        status: str,
        t: float,
        *,
        admitted: bool,
        shed_reason: str | None = None,
    ) -> None:
        st.responded = True
        if st.deadline_event is not None:
            self.fw.sim.cancel(st.deadline_event)
            st.deadline_event = None
        latency = 0.0 if status == "shed" else t - st.t_arrival
        self.responses.append(
            QueryResult(
                query_id=st.req.query_id,
                arrival=st.req.arrival,
                admitted=admitted,
                status=status,
                walks_requested=st.req.num_walks,
                walks_completed=st.walks_done,
                finish_time=t,
                latency=latency,
                shed_reason=shed_reason,
            )
        )
        stats = self.fw.metrics.stats
        if status == "ok":
            self.ok_count += 1
            stats.counter("svc_queries_ok").add(1)
        elif status == "timed_out":
            self.timed_out_count += 1
            stats.counter("svc_queries_timed_out").add(1)
        else:
            self.shed_count += 1
            stats.counter("svc_queries_shed").add(1)
        mx = self._mx
        if mx is not None:
            mx.counter("service_responses").inc(1.0, t)
            mx.counter("service_status", status=status).inc(1.0, t)
            if status == "shed":
                mx.counter("service_shed").inc(1.0, t)
            else:
                mx.histogram("service_latency_seconds",
                             _LATENCY_BUCKETS).observe(latency, t)
        if self.brownout is not None:
            # Deadline misses are the service's gray-failure pressure
            # signal; sheds are excluded (they are the brownout's own
            # output, and feeding them back would latch it on).
            self._recent_misses.append(1 if status == "timed_out" else 0)
            pressure = sum(self._recent_misses) / len(self._recent_misses)
            was = self.brownout.active
            self.brownout.observe(
                pressure, epoch=len(self.responses), now=t
            )
            self.queue.rate_factor = self.brownout.admit_rate_factor()
            if mx is not None and self.brownout.active != was:
                mx.gauge("service_brownout_active").set(
                    1.0 if self.brownout.active else 0.0, t
                )

    # --------------------------------------------------------------- report

    def _service_section(self) -> dict:
        arrivals = max(self.arrivals, 1)
        section = {
            "requests": {
                "arrivals": self.arrivals,
                "ok": self.ok_count,
                "timed_out": self.timed_out_count,
                "shed": self.shed_count,
                "deadline_misses": self.deadline_misses,
                "retry_budget_exhausted": self.retry_budget_exhausted,
            },
            "walks": {
                "injected": self.walks_injected,
                "zombie": self.zombie_walks,
            },
            "latency": latency_summary(self.responses),
            "shed_rate": self.shed_count / arrivals,
            "deadline_miss_rate": self.timed_out_count / arrivals,
            "queue": self.queue.stats(),
            "breaker": {**self.breaker.stats(), "deferrals": self.deferrals},
            "audit": self.auditor.stats(),
        }
        if self.brownout is not None:
            section["brownout"] = self.brownout.stats()
        return section
