"""Query requests, results, and the ledger that follows each query.

A :class:`QueryRequest` asks for ``num_walks`` random walks of
``length`` hops, arriving at a given offset from service start and
carrying a completion deadline.  The service answers every admitted
request with exactly one :class:`QueryResult`; a request shed at
admission gets its result immediately.  A :class:`QueryLedger` counts
each query's life, from arrival through admission and walk credits to
its one answer, for both serving front-ends.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..common.errors import ConfigError
from ..common.state import Stateful

__all__ = [
    "QueryLedger",
    "QueryRequest",
    "QueryResult",
    "QueryState",
    "arrival_order",
    "latency_summary",
    "open_loop_requests",
]


# eq=False: the optional numpy ``starts`` field would break the
# generated __eq__ (ambiguous array truth value); identity is the
# right equality for requests anyway.
@dataclass(frozen=True, eq=False)
class QueryRequest:
    """One walk query presented to the service.

    ``arrival`` is seconds after service start; ``deadline`` is the
    latency budget from arrival (the service answers with whatever
    walks finished once it expires).  ``starts`` optionally pins the
    start vertices; otherwise they are drawn from the service RNG
    stream.
    """

    query_id: int
    arrival: float
    num_walks: int
    length: int
    deadline: float
    starts: np.ndarray | None = None

    def validate(self) -> "QueryRequest":
        if self.query_id < 0:
            raise ConfigError(f"negative query_id {self.query_id}")
        if self.arrival < 0:
            raise ConfigError(f"query {self.query_id}: negative arrival {self.arrival}")
        if self.num_walks < 1:
            raise ConfigError(
                f"query {self.query_id}: num_walks must be >= 1, got {self.num_walks}"
            )
        if self.length < 1:
            raise ConfigError(
                f"query {self.query_id}: length must be >= 1, got {self.length}"
            )
        if self.deadline <= 0:
            raise ConfigError(
                f"query {self.query_id}: deadline must be > 0, got {self.deadline}"
            )
        if self.starts is not None and len(self.starts) != self.num_walks:
            raise ConfigError(
                f"query {self.query_id}: {len(self.starts)} starts for "
                f"{self.num_walks} walks"
            )
        return self


@dataclass(frozen=True)
class QueryResult:
    """The service's answer to one request.

    ``status`` is ``"ok"`` (all walks finished within the deadline),
    ``"timed_out"`` (deadline expired; ``walks_completed`` walks of
    partial results were available), or ``"shed"`` (refused at
    admission; ``shed_reason`` says why).  ``latency`` is response time
    from arrival in simulated seconds (deadline for timeouts, 0 for
    sheds).
    """

    query_id: int
    arrival: float
    admitted: bool
    status: str
    walks_requested: int
    walks_completed: int
    finish_time: float
    latency: float
    shed_reason: str | None = None

    @property
    def timed_out(self) -> bool:
        return self.status == "timed_out"


def arrival_order(requests, max_walk_length: int) -> list[QueryRequest]:
    """Validate a request schedule and sort it by (arrival, query id).

    Raises :class:`~repro.common.errors.ConfigError` on an empty
    schedule, an invalid request, a repeated query id, or walks longer
    than ``max_walk_length``.
    """
    if not requests:
        raise ConfigError("no requests to serve")
    seen: set[int] = set()
    for req in requests:
        req.validate()
        if req.query_id in seen:
            raise ConfigError(f"duplicate query_id {req.query_id}")
        seen.add(req.query_id)
        if req.length > max_walk_length:
            raise ConfigError(
                f"query {req.query_id}: length {req.length} exceeds "
                f"max_walk_length {max_walk_length}"
            )
    return sorted(requests, key=lambda r: (r.arrival, r.query_id))


def latency_summary(responses) -> dict:
    """Latency distribution of the ``ok`` answers among ``responses``:
    count, mean, max and p50/p95/p99 (all zero when none is ok)."""
    ok_lat = np.asarray(
        [r.latency for r in responses if r.status == "ok"], dtype=float
    )
    if not ok_lat.size:
        return {"n": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    p50, p95, p99 = (float(np.percentile(ok_lat, q)) for q in (50.0, 95.0, 99.0))
    return {
        "n": int(ok_lat.size),
        "mean": float(ok_lat.mean()),
        "max": float(ok_lat.max()),
        "p50": p50,
        "p95": p95,
        "p99": p99,
    }


@dataclass
class QueryState:
    """One query's bookkeeping from arrival until its walks all finish."""

    req: QueryRequest
    t_arrival: float
    deadline_abs: float
    walks_done: int = 0
    #: Set when the admission queue takes the query.
    admitted: bool = False
    responded: bool = False
    #: Retries left (None when per-query retry budgets are off).
    retry_budget: int | None = None
    budget_exhausted: bool = False


class QueryLedger(Stateful):
    """Per-query state and its counting for one serving front-end.

    Every arrival gets a :class:`QueryState`; every query gets exactly
    one :class:`QueryResult`, counted once by status and recorded into
    the ``{prefix}_*`` telemetry series.  Walks credited after a query
    was answered are zombies.  ``telemetry()`` returns the front-end's
    metrics registry or None (it is called per use, since a registry
    may be rebuilt between sessions); ``on_respond(st, result)`` runs
    after each answer is recorded.
    """

    # The admission queue is the front-end's too; it is captured here
    # once.  Query states are added by :meth:`state`.
    STATE = ("responses", "arrivals", "counts", "zombie_walks",
             "retry_budget_exhausted")
    PARTS = ("queue",)

    def __init__(self, prefix: str, queue, retry_budget: int, telemetry,
                 on_respond=None):
        self.prefix = prefix
        self.queue = queue
        self.retry_budget = retry_budget if retry_budget > 0 else None
        self.telemetry = telemetry
        self.on_respond = on_respond
        self.states: dict[int, QueryState] = {}
        self.responses: list[QueryResult] = []
        self.arrivals = 0
        self.counts = {"ok": 0, "timed_out": 0, "shed": 0}
        self.zombie_walks = 0
        self.retry_budget_exhausted = 0

    def state(self) -> dict:
        return {**super().state(),
                "states": [replace(st) for st in self.states.values()]}

    def restore(self, state: dict) -> None:
        super().restore(state)
        self.states = {st.req.query_id: replace(st) for st in state["states"]}

    # ------------------------------------------------------------ lifecycle

    def arrive(self, req: QueryRequest, t: float) -> QueryState:
        """Count an arrival at ``t`` and open its query state."""
        self.arrivals += 1
        mx = self.telemetry()
        if mx is not None:
            mx.counter(f"{self.prefix}_arrivals").inc(1.0, t)
        st = QueryState(req, t, t + req.deadline, retry_budget=self.retry_budget)
        self.states[req.query_id] = st
        return st

    def admit(self, st: QueryState, t: float) -> bool:
        """Offer ``st`` to the admission queue; answer whatever the
        queue sheds (an evicted entry, or the refused newcomer)."""
        admitted, evicted, refusal = self.queue.offer(st.req, t)
        if evicted is not None:
            self.respond(self.states[evicted.query_id], "shed", t, "shed-oldest")
        if not admitted:
            self.respond(st, "shed", t, refusal)
            return False
        st.admitted = True
        self.gauge_queue(t)
        return True

    def gauge_queue(self, t: float) -> None:
        """Record the admission queue's depth at ``t``."""
        mx = self.telemetry()
        if mx is not None:
            mx.gauge(f"{self.prefix}_queue_depth").set(float(len(self.queue)), t)

    def exhaust_budget(self, st: QueryState, t: float) -> None:
        """Count ``st``'s retry budget as spent (once per query)."""
        if not st.budget_exhausted:
            st.budget_exhausted = True
            self.retry_budget_exhausted += 1
            mx = self.telemetry()
            if mx is not None:
                mx.counter(f"{self.prefix}_retry_budget_exhausted").inc(1.0, t)

    def credit(self, st: QueryState, n: int, t: float, *,
               zombie: bool = True) -> None:
        """Credit ``n`` finished walks at ``t``; answer ``ok`` when the
        last one lands by the deadline.  Walks of an answered query
        count as zombies unless ``zombie`` is False."""
        st.walks_done += n
        if st.responded:
            if zombie:
                self.zombie_walks += n
        elif st.walks_done >= st.req.num_walks and t <= st.deadline_abs:
            self.respond(st, "ok", t)

    def respond(self, st: QueryState, status: str, t: float,
                shed_reason: str | None = None) -> None:
        """Answer ``st`` at ``t`` with ``status``: its one result."""
        st.responded = True
        latency = 0.0 if status == "shed" else t - st.t_arrival
        result = QueryResult(
            query_id=st.req.query_id,
            arrival=st.req.arrival,
            admitted=st.admitted,
            status=status,
            walks_requested=st.req.num_walks,
            walks_completed=st.walks_done,
            finish_time=t,
            latency=latency,
            shed_reason=shed_reason,
        )
        self.responses.append(result)
        self.counts[status] += 1
        mx = self.telemetry()
        if mx is not None:
            mx.counter(f"{self.prefix}_responses").inc(1.0, t)
            mx.counter(f"{self.prefix}_status", status=status).inc(1.0, t)
            if status == "timed_out":
                mx.counter(f"{self.prefix}_deadline_misses").inc(1.0, t)
            elif status == "shed":
                mx.counter(f"{self.prefix}_shed").inc(1.0, t)
        if self.on_respond is not None:
            self.on_respond(st, result)

    # -------------------------------------------------------- report, audit

    def report(self) -> dict:
        """The report block both front-ends share."""
        arrivals = max(self.arrivals, 1)
        return {
            "requests": {"arrivals": self.arrivals, **self.counts},
            "latency": latency_summary(self.responses),
            "shed_rate": self.counts["shed"] / arrivals,
            "deadline_miss_rate": self.counts["timed_out"] / arrivals,
            "queue": self.queue.stats(),
        }

    def pending(self) -> list[int]:
        """Ids of the queries not answered yet."""
        return [qid for qid, st in self.states.items() if not st.responded]

    def audit_errors(self, walks_finished: int, *, final: bool) -> list[str]:
        """The ledger's invariants: walks credited to queries equal the
        ``walks_finished``; every arrival is answered or pending; a
        final audit leaves none pending."""
        violations = []
        credited = sum(st.walks_done for st in self.states.values())
        if credited != walks_finished:
            violations.append(
                f"walks credited to queries ({credited}) != walks finished "
                f"({walks_finished})"
            )
        responded = sum(self.counts.values())
        pending = len(self.pending())
        if responded + pending != self.arrivals:
            violations.append(
                f"query conservation: responded {responded} + pending "
                f"{pending} != arrivals {self.arrivals}"
            )
        if final and pending:
            violations.append(f"final audit: {pending} queries unanswered")
        return violations

    def dump(self) -> dict:
        """The ledger's fields of an auditor's state dump."""
        return {
            "arrivals": self.arrivals,
            **self.counts,
            "pending_queries": sorted(self.pending()),
        }


def open_loop_requests(
    n_requests: int,
    rate_qps: float,
    rng: np.random.Generator,
    *,
    walks_per_query: int = 64,
    length: int = 6,
    deadline: float = 20e-3,
) -> list[QueryRequest]:
    """Seeded open-loop (Poisson) arrival schedule.

    Interarrival gaps are exponential with mean ``1/rate_qps`` —
    arrivals do not wait for earlier queries to finish, which is what
    exposes queueing and shedding behavior.
    """
    if n_requests < 1:
        raise ConfigError(f"n_requests must be >= 1, got {n_requests}")
    if rate_qps <= 0:
        raise ConfigError(f"rate_qps must be > 0, got {rate_qps}")
    gaps = rng.exponential(1.0 / rate_qps, size=n_requests)
    arrivals = np.cumsum(gaps)
    return [
        QueryRequest(
            query_id=i,
            arrival=float(arrivals[i]),
            num_walks=walks_per_query,
            length=length,
            deadline=deadline,
        ).validate()
        for i in range(n_requests)
    ]
