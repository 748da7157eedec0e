"""Circuit breaker fed by the fault layer's degraded-mode signals.

The breaker watches the engine's :class:`~repro.faults.model.FaultModel`
counters (and, when the durability layer is on, the
:class:`~repro.durability.IntegrityTracker`'s corruption detections)
between service events.  A *new* chip failure,
``breaker_exhausted_threshold`` newly-exhausted read retries, or
``breaker_corruption_threshold`` newly-detected silent corruptions since
the last check, trips the breaker open for ``breaker_cooldown`` simulated
seconds.  While open, the service either sheds arrivals
(``breaker_policy="shed"``) or holds dispatch and retries once the
cooldown elapses (``"defer"``) — either way the degraded device is not
piled onto.
"""

from __future__ import annotations

from ..common.state import Stateful

__all__ = ["CircuitBreaker"]


class CircuitBreaker(Stateful):
    """Open/closed state machine over fault-model degradation counters."""

    STATE = (
        "open_until",
        "trips",
        "_seen_chip_failures",
        "_seen_exhausted",
        "_seen_corruption",
    )

    def __init__(self, cfg, engine):
        self.cfg = cfg
        # The engine rebuilds its fault model on every session reset, so
        # hold the engine and read ``engine.fault_model`` per poll.
        self.engine = engine
        self.open_until = 0.0
        self.trips = 0
        self._seen_chip_failures = 0
        self._seen_exhausted = 0
        self._seen_corruption = 0
        self.retired = False
        # Last open/closed state recorded into telemetry, so the gauge
        # only gets a point on transitions (polls are frequent).
        self._open_recorded = False

    def retire(self) -> None:
        """Permanently close the breaker (its device left the system).

        A retired breaker never reports open and never trips again —
        the cluster calls this when a shard is removed so the departed
        shard cannot keep rerouting traffic."""
        self.retired = True
        self.open_until = 0.0

    def is_open(self, now: float) -> bool:
        """Poll degradation signals, then report whether the breaker is open."""
        if self.retired:
            return False
        self._update(now)
        open_now = now < self.open_until
        mx = getattr(self.engine, "telemetry", None)
        if mx is not None and open_now != self._open_recorded:
            self._open_recorded = open_now
            mx.gauge("service_breaker_open").set(1.0 if open_now else 0.0, now)
        return open_now

    def _update(self, now: float) -> None:
        if not self.cfg.breaker_enabled:
            return
        tripped = False
        fm = self.engine.fault_model
        if fm is not None:
            if fm.chip_failures > self._seen_chip_failures:
                self._seen_chip_failures = fm.chip_failures
                tripped = True
            new_exhausted = fm.reads_exhausted - self._seen_exhausted
            if new_exhausted >= self.cfg.breaker_exhausted_threshold:
                self._seen_exhausted = fm.reads_exhausted
                tripped = True
        it = getattr(self.engine, "integrity", None)
        if it is not None:
            new_corrupt = it.detected - self._seen_corruption
            if new_corrupt >= self.cfg.breaker_corruption_threshold:
                self._seen_corruption = it.detected
                tripped = True
        if tripped:
            self.open_until = max(self.open_until, now + self.cfg.breaker_cooldown)
            self.trips += 1

    def stats(self) -> dict:
        return {
            "enabled": self.cfg.breaker_enabled,
            "policy": self.cfg.breaker_policy,
            "trips": self.trips,
            "open_until": self.open_until,
            "retired": self.retired,
        }
