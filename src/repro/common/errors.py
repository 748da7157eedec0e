"""Exception hierarchy for the FlashWalker reproduction.

Every error raised deliberately by the library derives from
:class:`ReproError` so applications can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class GraphError(ReproError):
    """A graph is malformed or an operation on it is invalid."""


class PartitionError(GraphError):
    """Graph partitioning failed or produced inconsistent blocks."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class FlashError(ReproError):
    """An SSD-model operation was invalid (bad address, bad state...)."""


class FlashAddressError(FlashError):
    """A physical or logical flash address is out of range."""


class FaultError(FlashError):
    """An injected hardware fault could not be handled."""


class FaultExhaustedError(FaultError):
    """A bounded retry loop ran dry without the operation succeeding.

    Raised by the NAND read-retry ladder and the channel CRC retransmit
    loop when ``recover=False``; with recovery enabled the SSD model
    escalates instead (bad-block remap / link reset) so campaigns keep
    every walk.  ``at`` carries the simulation time when the final
    attempt failed, so callers can keep charging the wasted latency.
    The location fields (``channel``/``chip``/``die``/``plane``/
    ``block``) name the hardware unit that exhausted its retries, so
    service-layer circuit breakers and error logs can act on *where* a
    fault cluster sits; fields not applicable to the raising component
    stay None.  ``str(exc)`` keeps its original message prefix.
    """

    def __init__(
        self,
        message: str,
        at: float = 0.0,
        *,
        channel: int | None = None,
        chip: int | None = None,
        die: int | None = None,
        plane: int | None = None,
        block: int | None = None,
    ):
        super().__init__(message)
        self.at = at
        self.channel = channel
        self.chip = chip
        self.die = die
        self.plane = plane
        self.block = block

    def location(self) -> dict:
        """Non-None location/time context as a plain dict (for logs)."""
        out = {"at": self.at}
        for name in ("channel", "chip", "die", "plane", "block"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


class PowerLossError(SimulationError):
    """The simulated device lost power mid-run (durability layer).

    Raised out of ``Simulator.run()`` by an injected power-loss event
    (``FlashWalker.schedule_power_loss``).
    Unlike the recoverable fault classes, power loss destroys volatile
    state: in-flight walks, unflushed journal records, and the page of
    any plane caught busy by the cut (``torn_pages``).  ``recover()`` on
    the engine restores the latest quiescent checkpoint and replays
    forward.
    """

    def __init__(
        self,
        message: str,
        *,
        at: float = 0.0,
        events_executed: int = 0,
        completed_walks: int = 0,
        torn_pages: tuple = (),
    ):
        super().__init__(message)
        self.at = at
        self.events_executed = events_executed
        self.completed_walks = completed_walks
        #: ``(flat_chip, die, plane)`` triples of planes torn by the cut.
        self.torn_pages = tuple(torn_pages)


class BufferOverflowError(ReproError):
    """A hardware buffer exceeded capacity where overflow is not allowed.

    Note most FlashWalker buffers handle overflow by *flushing to flash*
    (modeled explicitly); this error only fires when a model invariant is
    violated, i.e. a bug, not a workload condition.  ``block``,
    ``capacity``, ``occupancy`` and ``at`` localize the offending entry
    when the raiser knows them; ``str(exc)`` keeps its message prefix.
    """

    def __init__(
        self,
        message: str,
        *,
        block: int | None = None,
        capacity: int | None = None,
        occupancy: int | None = None,
        at: float | None = None,
    ):
        super().__init__(message)
        self.block = block
        self.capacity = capacity
        self.occupancy = occupancy
        self.at = at


class InvariantViolation(SimulationError):
    """The online auditor found engine state violating an invariant.

    Carries the failed checks plus a state dump captured at detection
    time so the offending condition is debuggable post-mortem (the
    simulation stops at the raise).  ``context`` names the component
    that detected the violation (e.g. ``"service"`` or
    ``"cluster/shard:2"``) so multi-shard audit failures are
    attributable in CI logs.

    State dumps are *bounded*: long sequences (walk tables, per-shard
    listings) are truncated to :data:`MAX_STATE_ITEMS` entries and long
    strings to :data:`MAX_STATE_CHARS` characters, each with an
    explicit ``"... (<n> total, truncated)"`` marker, so a
    cluster-scale failure stays readable instead of dumping thousands
    of walk records.
    """

    #: Longest sequence kept verbatim in a state dump.
    MAX_STATE_ITEMS = 32
    #: Longest string kept verbatim in a state dump.
    MAX_STATE_CHARS = 512
    #: Recursion guard for nested state dumps.
    MAX_STATE_DEPTH = 4

    def __init__(self, message: str, *, violations: list[str] | None = None,
                 state: dict | None = None, at: float = 0.0,
                 context: str | None = None):
        super().__init__(message)
        self.violations = list(violations or [])
        self.state = self._bound(dict(state or {}), self.MAX_STATE_DEPTH)
        self.at = at
        self.context = context

    @classmethod
    def _bound(cls, value, depth: int):
        """Truncate oversized containers/strings, keeping dumps readable."""
        if depth <= 0:
            return "... (max depth, truncated)"
        if isinstance(value, dict):
            out = {}
            for i, (k, v) in enumerate(value.items()):
                if i >= cls.MAX_STATE_ITEMS:
                    out["..."] = f"({len(value)} total, truncated)"
                    break
                out[k] = cls._bound(v, depth - 1)
            return out
        if isinstance(value, (list, tuple)):
            seq = [cls._bound(v, depth - 1) for v in value[: cls.MAX_STATE_ITEMS]]
            if len(value) > cls.MAX_STATE_ITEMS:
                seq.append(f"... ({len(value)} total, truncated)")
            return tuple(seq) if isinstance(value, tuple) else seq
        if isinstance(value, str) and len(value) > cls.MAX_STATE_CHARS:
            return value[: cls.MAX_STATE_CHARS] + (
                f"... ({len(value)} chars, truncated)"
            )
        return value


class WalkError(ReproError):
    """A walk record or walk specification is invalid."""


class SchedulingError(ReproError):
    """The subgraph scheduler reached an inconsistent state."""
