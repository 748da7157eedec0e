"""On-board DRAM model.

A bandwidth link with DDR4 access latency plus capacity accounting for
the structures the board-level accelerator keeps there: the partition
walk buffer, mapping tables, and cached data (Section III-A/D).  We model
contention at the bus, not per-bank timing — the paper's DRAM traffic
(walk records, table entries) is small relative to flash traffic and
never the bottleneck, but it must be accounted for in board-accelerator
latency.
"""

from __future__ import annotations

from ..common.config import DRAMConfig
from ..common.errors import FlashError
from ..common.state import Stateful
from ..sim.resources import BandwidthLink

__all__ = ["DRAM"]


class DRAM(Stateful):
    """Shared on-board DRAM: serial bus + named capacity reservations."""

    PARTS = ("bus",)

    def __init__(self, cfg: DRAMConfig):
        cfg.validate()
        self.cfg = cfg
        self.bus = BandwidthLink(
            "dram.bus", cfg.peak_bytes_per_sec, latency=cfg.access_latency
        )
        self._reservations: dict[str, int] = {}

    # -- capacity ------------------------------------------------------------

    @property
    def reserved_bytes(self) -> int:
        return sum(self._reservations.values())

    @property
    def free_bytes(self) -> int:
        return self.cfg.capacity_bytes - self.reserved_bytes

    def reserve(self, name: str, nbytes: int) -> None:
        """Claim ``nbytes`` under ``name``; raises if capacity exceeded."""
        if nbytes < 0:
            raise FlashError(f"negative reservation {nbytes} for {name!r}")
        current = self._reservations.get(name, 0)
        if self.reserved_bytes - current + nbytes > self.cfg.capacity_bytes:
            raise FlashError(
                f"DRAM reservation {name!r} of {nbytes} bytes exceeds capacity "
                f"({self.free_bytes + current} free of {self.cfg.capacity_bytes})"
            )
        self._reservations[name] = nbytes

    def release(self, name: str) -> None:
        self._reservations.pop(name, None)

    # -- traffic ------------------------------------------------------------

    def read(self, now: float, nbytes: int | float) -> float:
        """Read ``nbytes``; returns completion time."""
        return self.bus.transfer(now, nbytes)

    def write(self, now: float, nbytes: int | float) -> float:
        """Write ``nbytes``; returns completion time."""
        return self.bus.transfer(now, nbytes)

    @property
    def bytes_transferred(self) -> int:
        return self.bus.bytes_moved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAM({self.reserved_bytes}/{self.cfg.capacity_bytes} reserved, "
            f"{self.bytes_transferred} bytes moved)"
        )
