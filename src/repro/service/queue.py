"""Bounded admission queue with pluggable overload policy.

The queue is the open-loop load's first backpressure point.  Three
policies (Section: service layer, DESIGN.md §9):

- ``reject``: a full queue refuses the newcomer.
- ``shed-oldest``: a full queue evicts its stalest entry — the one
  most likely to miss its deadline anyway — to make room.
- ``token-bucket``: arrivals are rate-limited to ``rate`` queries/sec
  (burst ``burst``) before the capacity check; over-rate arrivals are
  shed as ``rate-limited`` and the capacity overflow then behaves like
  ``reject``.

All decisions are counted so the run report can quote shed rates per
cause.
"""

from __future__ import annotations

from collections import deque

from ..common.state import Stateful
from .request import QueryRequest

__all__ = ["AdmissionQueue"]


class AdmissionQueue(Stateful):
    """FIFO of admitted-but-not-yet-dispatched queries."""

    # The brownout-driven ``rate_factor`` is its owner's to restore.
    STATE = (
        "_q",
        "_tokens",
        "_last_refill",
        "admitted",
        "rejected",
        "shed_oldest",
        "rate_limited",
        "peak_depth",
    )

    def __init__(
        self,
        capacity: int,
        policy: str = "reject",
        rate: float = 0.0,
        burst: int = 8,
    ):
        self.capacity = capacity
        self.policy = policy
        self.rate = rate
        self.burst = burst
        self._q: deque[QueryRequest] = deque()
        # Token bucket state: lazily refilled at each offer.
        self._tokens = float(burst)
        self._last_refill = 0.0
        #: Degraded-admission multiplier on the refill rate (brownout /
        #: resize ramp).  1.0 — the always-on default — refills at
        #: exactly the legacy rate, bit for bit.
        self.rate_factor = 1.0
        # Counters (surface in the report's service section).
        self.admitted = 0
        self.rejected = 0
        self.shed_oldest = 0
        self.rate_limited = 0
        self.peak_depth = 0

    @classmethod
    def from_config(cls, cfg) -> "AdmissionQueue":
        """The queue a service or cluster config's admission fields
        describe."""
        return cls(cfg.queue_capacity, cfg.admission_policy,
                   cfg.rate_limit_qps, cfg.rate_limit_burst)

    def __len__(self) -> int:
        return len(self._q)

    def offer(
        self, req: QueryRequest, now: float
    ) -> tuple[bool, QueryRequest | None, str | None]:
        """Try to admit ``req`` at time ``now``.

        Returns ``(admitted, evicted, refusal)``: ``evicted`` is the
        queue entry shed to make room under ``shed-oldest``; ``refusal``
        names why the newcomer itself was refused (``"queue-full"`` or
        ``"rate-limited"``), None when admitted.
        """
        if self.policy == "token-bucket":
            self._tokens = min(
                float(self.burst),
                self._tokens
                + (now - self._last_refill) * self.rate * self.rate_factor,
            )
            self._last_refill = now
            if self._tokens < 1.0:
                self.rate_limited += 1
                return False, None, "rate-limited"
            self._tokens -= 1.0
        evicted = None
        if len(self._q) >= self.capacity:
            if self.policy == "shed-oldest":
                evicted = self._q.popleft()
                self.shed_oldest += 1
            else:
                self.rejected += 1
                return False, None, "queue-full"
        self._q.append(req)
        self.admitted += 1
        self.peak_depth = max(self.peak_depth, len(self._q))
        return True, evicted, None

    def peek(self) -> QueryRequest | None:
        return self._q[0] if self._q else None

    def pop(self) -> QueryRequest:
        return self._q.popleft()

    def stats(self) -> dict:
        return {
            "policy": self.policy,
            "capacity": self.capacity,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed_oldest": self.shed_oldest,
            "rate_limited": self.rate_limited,
            "peak_depth": self.peak_depth,
        }
