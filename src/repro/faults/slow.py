"""Gray-failure (slow-fault) injection: latency inflation on a fixed grid.

A gray failure is slow-but-not-dead: a chip stuck in read-retry storms,
a GC-saturated die, a degraded ONFI bus.  Nothing errors, no breaker
sees a fault counter move — operations just take longer, silently
dragging tail latency.  :class:`SlowFaultModel` reproduces that
pathology deterministically: every slow window ``(kind, unit, t_start,
t_end, factor)`` is fixed on the absolute simulated-time grid at
construction — either passed explicitly or generated once from the run
seed — so factor lookups draw **no RNG** at query time and same-seed
runs stay byte-identical.

The model plugs into the flash layer the same way ``FaultModel`` does:
``SSD.attach_slow_model`` sets ``chip.slow_model`` / ``channel.slow_model``
(both default ``None``, so a disabled run charges no extra latency).  Chips charge ``read_extra`` / ``program_extra`` on array
ops; channels charge ``bus_extra`` on bus transfers.
"""

from __future__ import annotations

import numpy as np

from ..common.config import SLOW_FAULT_KINDS, SlowFaultConfig
from ..common.rng import derive_seed
from ..common.state import Stateful

__all__ = ["SlowFaultModel"]


class SlowFaultModel(Stateful):
    """Seeded latency-inflation windows over chips and channel buses.

    Parameters
    ----------
    cfg:
        Validated :class:`~repro.common.config.SlowFaultConfig`.
    seed:
        Root seed; window generation derives its own stream
        (``derive_seed(seed, "slow-faults")``) so enabling the model
        never perturbs any other subsystem's RNG.
    n_chips / n_channels:
        Unit-id ranges the seeded generator may target.
    """

    # Windows are a pure function of (seed, config): only the counters
    # change during a run.
    STATE = ("slow_read_ops", "slow_program_ops", "slow_bus_ops", "slow_time_added")

    def __init__(self, cfg: SlowFaultConfig, seed: int, *, n_chips: int, n_channels: int):
        self.cfg = cfg
        self.n_chips = int(n_chips)
        self.n_channels = int(n_channels)
        # Per-unit window lists: unit id -> [(t_start, t_end, factor), ...]
        self._chip_read: dict[int, list[tuple[float, float, float]]] = {}
        self._chip_program: dict[int, list[tuple[float, float, float]]] = {}
        self._chan_bus: dict[int, list[tuple[float, float, float]]] = {}
        self.windows: list[tuple[str, int, float, float, float]] = []
        for kind, unit, t0, t1, factor in cfg.windows:
            self._add(kind, int(unit), float(t0), float(t1), float(factor))
        if cfg.n_random:
            self._generate(seed)
        for table in (self._chip_read, self._chip_program, self._chan_bus):
            for spans in table.values():
                spans.sort()
        self.windows.sort()
        # Counters (merged into RunResult.counters when the model is on).
        self.slow_read_ops = 0
        self.slow_program_ops = 0
        self.slow_bus_ops = 0
        self.slow_time_added = 0.0

    def _add(self, kind: str, unit: int, t0: float, t1: float, factor: float) -> None:
        table = {
            "chip-read": self._chip_read,
            "chip-program": self._chip_program,
            "channel-bus": self._chan_bus,
        }[kind]
        table.setdefault(unit, []).append((t0, t1, factor))
        self.windows.append((kind, unit, t0, t1, factor))

    def _generate(self, seed: int) -> None:
        """Draw ``n_random`` windows once, at construction, from the seed."""
        cfg = self.cfg
        rng = np.random.default_rng(derive_seed(seed, "slow-faults"))
        kinds = tuple(k for k in SLOW_FAULT_KINDS if k in cfg.random_kinds)
        for _ in range(cfg.n_random):
            kind = kinds[int(rng.integers(len(kinds)))]
            n_units = self.n_channels if kind == "channel-bus" else self.n_chips
            unit = int(rng.integers(max(1, n_units)))
            t0 = float(rng.uniform(0.0, cfg.horizon))
            dur = float(rng.uniform(cfg.duration_min, cfg.duration_max))
            factor = float(rng.uniform(cfg.factor_min, cfg.factor_max))
            self._add(kind, unit, t0, t0 + dur, factor)

    # -- factor lookups (pure functions of time; no RNG) --------------------

    @staticmethod
    def _factor(table, unit: int, t: float) -> float:
        spans = table.get(unit)
        if not spans:
            return 1.0
        factor = 1.0
        for t0, t1, f in spans:
            if t0 <= t < t1:
                factor *= f  # overlapping windows compound
            elif t0 > t:
                break
        return factor

    def _extra(self, table, unit: int, t: float, base: float) -> float:
        f = self._factor(table, unit, t)
        if f <= 1.0:
            return 0.0
        extra = base * (f - 1.0)
        self.slow_time_added += extra
        return extra

    def read_extra(self, chip: int, t: float, base: float) -> float:
        """Extra seconds a page sense starting at ``t`` on ``chip`` costs."""
        extra = self._extra(self._chip_read, chip, t, base)
        if extra > 0.0:
            self.slow_read_ops += 1
        return extra

    def program_extra(self, chip: int, t: float, base: float) -> float:
        """Extra seconds a page program starting at ``t`` on ``chip`` costs."""
        extra = self._extra(self._chip_program, chip, t, base)
        if extra > 0.0:
            self.slow_program_ops += 1
        return extra

    def bus_extra(self, channel: int, t: float, base: float) -> float:
        """Extra seconds a bus transfer starting at ``t`` is stretched by."""
        extra = self._extra(self._chan_bus, channel, t, base)
        if extra > 0.0:
            self.slow_bus_ops += 1
        return extra

    def stats(self) -> dict:
        return {
            "slow_windows": len(self.windows),
            "slow_read_ops": self.slow_read_ops,
            "slow_program_ops": self.slow_program_ops,
            "slow_bus_ops": self.slow_bus_ops,
            "slow_time_added": self.slow_time_added,
        }
