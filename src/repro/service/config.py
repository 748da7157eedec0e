"""Service-layer configuration.

Deliberately *not* part of :class:`~repro.common.config.FlashWalkerConfig`:
the engine's config fingerprint names the simulated hardware and
workload shape, and the same device can serve queries under many
admission policies.  Keeping :class:`ServiceConfig` separate also keeps
batch-run reports byte-identical whether or not the service package is
installed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import ConfigError

__all__ = ["ServiceConfig"]

_ADMISSION_POLICIES = ("reject", "shed-oldest", "token-bucket")
_BREAKER_POLICIES = ("shed", "defer")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the always-on query service (:class:`WalkQueryService`).

    ``admission_policy`` decides what happens when the bounded queue is
    full: ``reject`` refuses the newcomer, ``shed-oldest`` evicts the
    stalest queued query to make room, ``token-bucket`` additionally
    rate-limits arrivals to ``rate_limit_qps`` (burst
    ``rate_limit_burst``) before the capacity check.  ``max_inflight_walks``
    bounds how many walks the dispatcher keeps in the engine at once —
    the open-loop backpressure point.  ``breaker_*`` configures the
    circuit breaker fed by the fault model's degraded-mode signals.
    ``audit_interval_events`` runs the invariant auditor every N
    simulator events (0 disables periodic audits; the end-of-run audit
    always runs).
    """

    queue_capacity: int = 64
    admission_policy: str = "reject"
    rate_limit_qps: float = 0.0
    rate_limit_burst: int = 8
    max_inflight_walks: int = 4096
    max_walk_length: int = 6
    default_deadline: float = 20e-3
    breaker_enabled: bool = True
    breaker_policy: str = "shed"
    breaker_cooldown: float = 2e-3
    breaker_exhausted_threshold: int = 1
    breaker_corruption_threshold: int = 1
    audit_interval_events: int = 256
    # -- gray-failure resilience (all opt-in; off by default) ------------
    #: Breaker-reopen retries a deferred query may consume before it is
    #: shed with reason ``retry-budget-exhausted`` (0 = unlimited, the
    #: legacy behavior).  Retries that could only land after the
    #: query's deadline are never charged — they cannot change the
    #: answer, so the deadline event owns them.
    query_retry_budget: int = 0
    #: Brownout admission: when the trailing deadline-miss fraction
    #: over the last ``brownout_window`` responses crosses
    #: ``brownout_enter_pressure``, scale the dispatcher's inflight
    #: budget and the token-bucket refill rate down by the factors
    #: until pressure falls back to ``brownout_exit_pressure``.
    brownout_enabled: bool = False
    brownout_enter_pressure: float = 0.25
    brownout_exit_pressure: float = 0.0
    brownout_capacity_factor: float = 0.5
    brownout_rate_factor: float = 0.5
    brownout_window: int = 16

    def validate(self) -> "ServiceConfig":
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.admission_policy not in _ADMISSION_POLICIES:
            raise ConfigError(
                f"unknown admission_policy {self.admission_policy!r}; "
                f"expected one of {_ADMISSION_POLICIES}"
            )
        if self.admission_policy == "token-bucket" and self.rate_limit_qps <= 0:
            raise ConfigError("token-bucket policy needs rate_limit_qps > 0")
        if self.rate_limit_qps < 0:
            raise ConfigError(f"negative rate_limit_qps {self.rate_limit_qps}")
        if self.rate_limit_burst < 1:
            raise ConfigError(f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}")
        if self.max_inflight_walks < 1:
            raise ConfigError(
                f"max_inflight_walks must be >= 1, got {self.max_inflight_walks}"
            )
        if self.max_walk_length < 1:
            raise ConfigError(f"max_walk_length must be >= 1, got {self.max_walk_length}")
        if self.default_deadline <= 0:
            raise ConfigError(f"default_deadline must be > 0, got {self.default_deadline}")
        if self.breaker_policy not in _BREAKER_POLICIES:
            raise ConfigError(
                f"unknown breaker_policy {self.breaker_policy!r}; "
                f"expected one of {_BREAKER_POLICIES}"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigError(f"breaker_cooldown must be > 0, got {self.breaker_cooldown}")
        if self.breaker_exhausted_threshold < 1:
            raise ConfigError("breaker_exhausted_threshold must be >= 1")
        if self.breaker_corruption_threshold < 1:
            raise ConfigError("breaker_corruption_threshold must be >= 1")
        if self.audit_interval_events < 0:
            raise ConfigError(
                f"negative audit_interval_events {self.audit_interval_events}"
            )
        if self.query_retry_budget < 0:
            raise ConfigError(
                f"negative query_retry_budget {self.query_retry_budget}"
            )
        if self.brownout_enabled:
            if not 0.0 < self.brownout_enter_pressure <= 1.0:
                raise ConfigError(
                    "brownout_enter_pressure must be in (0, 1], got "
                    f"{self.brownout_enter_pressure}"
                )
            if not (
                0.0 <= self.brownout_exit_pressure
                < self.brownout_enter_pressure
            ):
                raise ConfigError(
                    "brownout_exit_pressure must be in [0, enter), got "
                    f"{self.brownout_exit_pressure}"
                )
            for name in ("brownout_capacity_factor", "brownout_rate_factor"):
                v = getattr(self, name)
                if not 0.0 < v <= 1.0:
                    raise ConfigError(f"{name} must be in (0, 1], got {v}")
            if self.brownout_window < 1:
                raise ConfigError(
                    f"brownout_window must be >= 1, got {self.brownout_window}"
                )
        return self
