"""Brownout admission: planned degradation under gray-failure pressure.

A brownout is the middle ground between serving normally and tripping a
breaker: when a pressure signal (straggler share of live shards at the
cluster layer, trailing deadline-miss fraction at the single-device
service) crosses ``enter_pressure``, the controller scales admission
capacity and the token-bucket refill rate down by fixed factors, so
load is shed cheaply at the front door *before* queries queue up behind
slow hardware and blow their deadlines.  Pressure falling to
``exit_pressure`` (hysteresis) restores full admission.

The controller is deliberately tiny and deterministic — pure function
of the observed pressure sequence, no wall clock, no randomness — so
brownout runs replay byte-identically.
"""

from __future__ import annotations

from ..common.state import Stateful

__all__ = ["BrownoutController"]


class BrownoutController(Stateful):
    """Hysteresis switch from a pressure signal to admission factors."""

    # Transition records are never edited after they are appended.
    STATE = ("active", "entries", "epochs_active", "last_pressure", "transitions")

    def __init__(
        self,
        *,
        enter_pressure: float,
        exit_pressure: float,
        capacity_factor: float,
        rate_factor: float,
    ):
        self.enter_pressure = float(enter_pressure)
        self.exit_pressure = float(exit_pressure)
        self.capacity_factor = float(capacity_factor)
        self.rate_factor = float(rate_factor)
        self.active = False
        self.entries = 0
        self.epochs_active = 0
        self.last_pressure = 0.0
        self.transitions: list[dict] = []

    @classmethod
    def from_config(cls, cfg) -> "BrownoutController | None":
        """The controller a service or cluster config's ``brownout_*``
        fields describe; None when ``brownout_enabled`` is off."""
        if not cfg.brownout_enabled:
            return None
        return cls(
            enter_pressure=cfg.brownout_enter_pressure,
            exit_pressure=cfg.brownout_exit_pressure,
            capacity_factor=cfg.brownout_capacity_factor,
            rate_factor=cfg.brownout_rate_factor,
        )

    def observe(self, pressure: float, *, epoch: int, now: float) -> bool:
        """Feed one pressure sample; returns the (possibly new) state."""
        self.last_pressure = float(pressure)
        if not self.active and pressure >= self.enter_pressure:
            self.active = True
            self.entries += 1
            self.transitions.append(
                {"active": True, "pressure": float(pressure),
                 "epoch": int(epoch), "t": float(now)}
            )
        elif self.active and pressure <= self.exit_pressure:
            self.active = False
            self.transitions.append(
                {"active": False, "pressure": float(pressure),
                 "epoch": int(epoch), "t": float(now)}
            )
        if self.active:
            self.epochs_active += 1
        return self.active

    def admit_rate_factor(self) -> float:
        return self.rate_factor if self.active else 1.0

    def stats(self) -> dict:
        return {
            "active": self.active,
            "entries": self.entries,
            "epochs_active": self.epochs_active,
            "transitions": len(self.transitions),
            "last_pressure": self.last_pressure,
        }
