"""Query requests and results.

A :class:`QueryRequest` asks for ``num_walks`` random walks of
``length`` hops, arriving at a given offset from service start and
carrying a completion deadline.  The service answers every admitted
request with exactly one :class:`QueryResult`; a request shed at
admission gets its result immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigError

__all__ = ["QueryRequest", "QueryResult", "latency_summary", "open_loop_requests"]


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
