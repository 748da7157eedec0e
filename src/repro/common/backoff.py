"""Deterministic exponential backoff / retry policy.

The cluster's migration-RPC retransmits back off by this policy, so
their delay schedule is tested once and identical across serial,
parallel, and resumed executions.

Delays are a pure function of ``(seed, salt, attempt)``: jitter is
drawn from a SHA-256 hash rather than a live RNG stream, so computing
a delay never perturbs any seeded generator and a replayed timeline
recomputes the exact same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .rng import derive_seed

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded, deterministic jitter.

    ``delay(0)`` is always ``0.0`` (first attempt is immediate);
    ``delay(k)`` for ``k >= 1`` is ``min(cap, base * factor**(k-1))``
    stretched by up to ``jitter_frac`` of itself.  ``max_attempts``
    bounds the retry loop: :meth:`exhausted` reports when a caller
    should stop retrying and escalate.
    """

    base_delay: float = 0.0
    factor: float = 2.0
    max_delay: float = float("inf")
    max_attempts: int = 8
    jitter_frac: float = 0.0
    seed: int = 0
    salt: str = ""

    def validate(self) -> "RetryPolicy":
        if self.base_delay < 0:
            raise ConfigError(f"negative base_delay {self.base_delay}")
        if self.factor < 1.0:
            raise ConfigError(f"factor must be >= 1, got {self.factor}")
        if self.max_delay < 0:
            raise ConfigError(f"negative max_delay {self.max_delay}")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ConfigError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}"
            )
        return self

    def _jitter(self, attempt: int) -> float:
        """Uniform [0, 1) drawn from a hash of (seed, salt, attempt)."""
        if self.jitter_frac <= 0.0:
            return 0.0
        u = derive_seed(self.seed, f"backoff:{self.salt}:{attempt}") / float(1 << 63)
        return self.jitter_frac * u

    def delay(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (0-based).

        Attempt 0 is the initial try — no delay.  Later attempts grow
        geometrically up to ``max_delay``, plus deterministic jitter.
        """
        if attempt <= 0:
            return 0.0
        raw = min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))
        return raw * (1.0 + self._jitter(attempt))

    def exhausted(self, attempt: int) -> bool:
        """True once ``attempt`` tries have been made and failed."""
        return attempt >= self.max_attempts

    def total_delay(self) -> float:
        """Sum of all delays a fully-exhausted retry loop would wait."""
        return sum(self.delay(k) for k in range(self.max_attempts))
