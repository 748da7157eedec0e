"""Per-shard health and load tracking for the cluster router.

Each shard gets its own :class:`~repro.service.breaker.CircuitBreaker`
— the *same* class the single-device service uses — fed through a
:class:`ShardHealthProxy` that mirrors the engine-shaped attributes
(``fault_model`` counters, ``integrity.detected``) from the health
signals each epoch's :class:`~repro.cluster.shard.ShardStepResult`
carries back.  The proxy exists because in process-pool mode the
engine object lives in a worker; the coordinator polls the mirrored
counters instead, and serial mode uses the identical path so the two
execution modes cannot diverge.

Elastic membership adds two responsibilities: a trailing per-shard
*load window* (walk segments leased per epoch) that the load-driven
rebalance trigger reads, and shard lifecycle — :meth:`add_shard` for a
live grow, :meth:`retire` for a removal, which permanently silences
the departed shard's breaker and freezes its counters so stale state
cannot pollute reports or reroute decisions.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

from ..service.breaker import CircuitBreaker

__all__ = ["ShardHealthProxy", "HealthBoard"]


class ShardHealthProxy:
    """Engine look-alike the reused circuit breaker polls."""

    def __init__(self):
        self.fault_model = SimpleNamespace(chip_failures=0, reads_exhausted=0)
        self.integrity = SimpleNamespace(detected=0)

    def update(self, health: dict) -> None:
        self.fault_model.chip_failures = int(health.get("chip_failures", 0))
        self.fault_model.reads_exhausted = int(health.get("reads_exhausted", 0))
        self.integrity.detected = int(health.get("corruption_detected", 0))


class HealthBoard:
    """Breakers + degradation + load bookkeeping for every shard.

    All per-shard sequences are indexed by *physical* shard id and only
    ever grow — a retired shard keeps its slot (frozen) so report and
    audit indexing stay stable across membership changes.
    """

    def __init__(self, svc_cfg, n_shards: int, *, load_window_epochs: int = 8,
                 straggler_window_epochs: int = 0,
                 straggler_min_epochs: int = 3,
                 straggler_median_multiple: float = 3.0):
        self._svc_cfg = svc_cfg
        self._window = max(1, int(load_window_epochs))
        self.proxies = [ShardHealthProxy() for _ in range(n_shards)]
        self.breakers = [CircuitBreaker(svc_cfg, p) for p in self.proxies]
        self.open_epochs = [0] * n_shards
        self.reroutes = [0] * n_shards
        self.loads = [deque(maxlen=self._window) for _ in range(n_shards)]
        self.retired: set[int] = set()
        # Straggler detection (0 window = off, zero extra state touched
        # on the legacy path).  ``suspect`` is a third health state
        # between closed and breaker-open: the shard still serves, but
        # it has been slow relative to its peers for a trailing window.
        self._straggler_window = max(0, int(straggler_window_epochs))
        self._straggler_min = max(1, int(straggler_min_epochs))
        self._straggler_multiple = float(straggler_median_multiple)
        self.latencies = [
            deque(maxlen=self._straggler_window or 1) for _ in range(n_shards)
        ]
        self.suspect = [False] * n_shards
        self.suspect_epochs = [0] * n_shards
        self.suspect_transitions: list[dict] = []

    @property
    def n_shards(self) -> int:
        return len(self.breakers)

    # ------------------------------------------------------------ lifecycle

    def add_shard(self) -> int:
        """Register a freshly-added shard; returns its physical id."""
        proxy = ShardHealthProxy()
        self.proxies.append(proxy)
        self.breakers.append(CircuitBreaker(self._svc_cfg, proxy))
        self.open_epochs.append(0)
        self.reroutes.append(0)
        self.loads.append(deque(maxlen=self._window))
        self.latencies.append(deque(maxlen=self._straggler_window or 1))
        self.suspect.append(False)
        self.suspect_epochs.append(0)
        return len(self.breakers) - 1

    def retire(self, shard_id: int) -> None:
        """A departed shard's health state is frozen, not polled: its
        breaker is permanently silenced, its load window cleared, so
        it can never trip, reroute, or skew a rebalance again."""
        self.retired.add(int(shard_id))
        self.breakers[shard_id].retire()
        self.loads[shard_id].clear()
        self.latencies[shard_id].clear()
        self.suspect[shard_id] = False

    # --------------------------------------------------------------- health

    def update(self, shard_id: int, health: dict) -> None:
        self.proxies[shard_id].update(health)

    def poll(self, now: float) -> list[bool]:
        """Breaker state per shard at cluster time ``now``; counts open
        epochs.  Retired shards report closed without touching any
        counter."""
        state = []
        for i, brk in enumerate(self.breakers):
            if i in self.retired:
                state.append(False)
                continue
            is_open = brk.is_open(now)
            if is_open:
                self.open_epochs[i] += 1
            state.append(is_open)
        return state

    # ----------------------------------------------------------------- load

    def note_loads(self, leased: list[int]) -> None:
        """Record one epoch's leased-segment count per shard (the
        rebalance trigger's trailing window).  ``leased`` is indexed by
        physical id and must cover every registered shard."""
        for sid, n in enumerate(leased):
            if sid not in self.retired:
                self.loads[sid].append(int(n))

    def window_load(self, shard_id: int) -> int:
        return sum(self.loads[shard_id])

    def window_loads(self, shard_ids) -> list[int]:
        """Trailing-window loads for ``shard_ids``, in their order
        (slot order when called with a placement's id table)."""
        return [self.window_load(sid) for sid in shard_ids]

    # ----------------------------------------------------------- stragglers

    @staticmethod
    def _median(values: list[float]) -> float:
        vals = sorted(values)
        n = len(vals)
        mid = n // 2
        return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])

    def note_epoch_latency(self, shard_id: int, duration: float,
                           leased: int) -> None:
        """Record one epoch's normalized step latency for a shard
        (summed per-walk service time divided by the walks served, so
        a shard that was simply handed more work is not mistaken for a
        slow one).  Only epochs where the shard actually completed
        work are sampled."""
        if self._straggler_window <= 0 or shard_id in self.retired:
            return
        if leased <= 0:
            return
        self.latencies[shard_id].append(float(duration) / float(leased))

    def refresh_suspects(self, *, epoch: int, now: float) -> list[bool]:
        """Recompute the suspect flag per shard from the trailing
        latency windows: a shard is suspect when its window median is at
        least ``straggler_median_multiple`` times the median of the
        *other* live shards' window medians.  Deterministic — pure
        function of the recorded durations, no wall clock, no sampling.
        """
        if self._straggler_window <= 0:
            return list(self.suspect)
        medians: dict[int, float] = {}
        for sid, window in enumerate(self.latencies):
            if sid in self.retired:
                continue
            if len(window) >= self._straggler_min:
                medians[sid] = self._median(list(window))
        for sid in range(len(self.suspect)):
            if sid in self.retired:
                continue
            own = medians.get(sid)
            peers = [m for other, m in medians.items() if other != sid]
            was = self.suspect[sid]
            if own is None or not peers:
                is_suspect = False
            else:
                is_suspect = own >= self._straggler_multiple * self._median(peers)
            if is_suspect != was:
                self.suspect_transitions.append({
                    "shard": sid,
                    "suspect": is_suspect,
                    "epoch": int(epoch),
                    "t": float(now),
                })
            self.suspect[sid] = is_suspect
            if is_suspect:
                self.suspect_epochs[sid] += 1
        return list(self.suspect)

    def straggler_pressure(self) -> float:
        """Fraction of live shards currently suspect (the brownout
        controller's input signal)."""
        live = [sid for sid in range(len(self.suspect))
                if sid not in self.retired]
        if not live:
            return 0.0
        return sum(1 for sid in live if self.suspect[sid]) / len(live)

    # ---------------------------------------------------------------- report

    def stats(self) -> dict:
        # Retired/load details live in the report's ``membership``
        # section; suspect counts stay zero with detection off.
        return {
            "breaker_trips": [b.trips for b in self.breakers],
            "open_epochs": list(self.open_epochs),
            "reroutes": list(self.reroutes),
            # Nothing promotes on breaker state; the key stays until the
            # next cluster-report schema change.
            "breaker_promotions": 0,
            "suspect_epochs": list(self.suspect_epochs),
            "suspect_transitions": len(self.suspect_transitions),
        }
