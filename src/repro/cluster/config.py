"""Cluster-layer configuration.

Like :class:`~repro.service.config.ServiceConfig`, deliberately outside
the engine's ``FlashWalkerConfig``: the per-shard engines keep their
own fingerprinted hardware configs, and the cluster knobs (placement,
link model, failover policy) describe the *deployment* around them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.backoff import RetryPolicy
from ..common.errors import ConfigError
from ..service.config import ServiceConfig

__all__ = ["ClusterConfig"]

_PLACEMENTS = ("hash", "range")


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the sharded serving cluster (:class:`ClusterService`).

    ``n_shards`` simulated FlashWalker devices serve one logical graph;
    every device holds the full graph image (its subgraph replica set),
    but each *owns* the vertices the ``placement`` map assigns it and
    only advances walks currently resident on it.  Walks advance in
    leases of ``segment_hops`` hops; when a walk's vertex lands on
    another shard's territory it migrates there over the modeled
    network link.

    The link charges ``link_latency + bytes / link_bandwidth`` per
    migration message and draws seeded loss/corruption faults per
    attempt; failed attempts retransmit under the shared
    :class:`~repro.common.backoff.RetryPolicy` and, once
    ``rpc_max_attempts`` is exhausted, escalate to a slow reliable
    fallback path (``reliable_fallback_latency``) — a migration is
    *never* dropped, only delayed, which is half of the walk
    conservation argument.

    ``kill_schedule`` is the shard-kill injector: ``(t, shard)`` pairs
    in cluster time; each kill power-fails the shard mid-epoch and the
    read replica is promoted by replaying the shard's walk journal
    (measured RTO lands in the report's failover timeline).

    Degradation: arrivals pass an admission queue sized by
    ``queue_capacity`` under ``admission_policy``; per-shard circuit
    breakers (fed by each shard's fault/integrity counters) mark shards
    degraded, and leases for a degraded shard go to its ring successor,
    or defer until a breaker closes when every successor is degraded
    too.
    """

    n_shards: int = 4
    placement: str = "hash"
    segment_hops: int = 1
    # -- network link ------------------------------------------------------
    link_latency: float = 5e-6
    link_bandwidth: float = 2e9
    walk_bytes: int = 16
    link_loss_prob: float = 0.0
    link_corrupt_prob: float = 0.0
    rpc_base_delay: float = 10e-6
    rpc_max_attempts: int = 5
    reliable_fallback_latency: float = 500e-6
    # -- shard kills (power loss + replica promotion) ----------------------
    kill_schedule: tuple[tuple[float, int], ...] = ()
    #: Where inside the victim's epoch the cut lands, as a fraction of
    #: its previous epoch's local duration.
    kill_epoch_frac: float = 0.5
    # -- admission / serving ----------------------------------------------
    queue_capacity: int = 64
    admission_policy: str = "reject"
    rate_limit_qps: float = 0.0
    rate_limit_burst: int = 8
    max_walk_length: int = 6
    max_inflight_walks_per_shard: int = 4096
    # -- health / degradation ----------------------------------------------
    breaker_enabled: bool = True
    breaker_cooldown: float = 2e-3
    breaker_exhausted_threshold: int = 1
    breaker_corruption_threshold: int = 1
    audit_interval_epochs: int = 1
    #: Hard cap on coordination rounds (runaway guard, like max_events).
    max_epochs: int = 100_000
    # -- elastic membership -------------------------------------------------
    #: Scheduled membership changes: ``(t, kind, arg)`` triples in
    #: cluster time.  ``kind`` is ``"grow"`` (arg = shard count to add),
    #: ``"shrink"`` (arg = physical shard id to remove) or
    #: ``"rebalance"`` (arg ignored; recuts range bounds from the load
    #: window).  Requests execute strictly one at a time, in time order.
    resize_schedule: tuple[tuple[float, str, int], ...] = ()
    #: Abort a resize whose transfer phase has not drained after this
    #: many barriers (rollback to the old placement, tested path).
    resize_transfer_budget_epochs: int = 64
    #: Load-driven automatic rebalancing (range placement only).
    rebalance_enabled: bool = False
    rebalance_check_epochs: int = 8
    rebalance_window_epochs: int = 8
    rebalance_imbalance_ratio: float = 2.0
    rebalance_cooldown_epochs: int = 16
    rebalance_min_walks: int = 32
    # -- telemetry ----------------------------------------------------------
    #: Enable the router's deterministic metrics registry plus per-shard
    #: engine telemetry (:mod:`repro.obs.metrics`).  Off by default; the
    #: report's ``cluster.telemetry`` section exists only when it is on.
    telemetry_enabled: bool = False
    # -- gray-failure resilience --------------------------------------------
    #: Per-link delay-inflation windows ``(t_start, t_end, factor)`` in
    #: cluster time: every migration/handoff attempt sent inside an
    #: active window pays ``factor``x the nominal link span.  The link
    #: stays lossless-looking — no fault counter moves, no breaker sees
    #: it — which is exactly the gray-failure pathology.
    link_slow_windows: tuple[tuple[float, float, float], ...] = ()
    #: Straggler detection: keep a trailing window of each shard's
    #: per-epoch normalized step latency and mark a shard *suspect* when
    #: its window median exceeds ``straggler_median_multiple`` times the
    #: median of the other live shards' medians.  Suspect is a state
    #: between healthy and breaker-open: the shard keeps serving, but
    #: hedging (below) stops trusting it to be fast.
    straggler_detection: bool = False
    straggler_window_epochs: int = 8
    straggler_min_epochs: int = 3
    straggler_median_multiple: float = 3.0
    #: Hedged walk leases: a lease executing on a *suspect* shard is
    #: speculatively re-issued to its ring successor, injected
    #: ``hedge_delay`` after the primary copy; the first completion wins
    #: (deterministic ``(t_done, shard)`` tie-break) and the loser is
    #: counted as hedge-wasted work.  Requires ``straggler_detection``.
    #: Hedged mode also commits walks at their winning completion time
    #: instead of the epoch barrier, and answers a query at its last
    #: walk's winning commit — the point of hedging is that the fast
    #: copy's finish time is not dragged to the slow shard's.
    hedging_enabled: bool = False
    hedge_delay: float = 20e-6
    #: End-to-end deadline propagation: walks of already-responded
    #: (timed-out / shed) queries are sacrificed at the next barrier
    #: instead of running to completion as zombies, dead queries are
    #: never hedged, and migrations of dead walks skip the link.
    deadline_propagation: bool = False
    #: Per-query retry budget: link retransmits on a query's migrations
    #: and hedges issued for its walks are charged against this; an
    #: exhausted query escalates straight to the reliable fallback path
    #: (0 = unlimited, the legacy behavior).
    query_retry_budget: int = 0
    # -- brownout admission --------------------------------------------------
    #: Degraded admission driven by straggler pressure (suspect share of
    #: live shards): while active, admission capacity and the token-
    #: bucket refill rate are scaled down so load is shed *before*
    #: queues blow deadlines.  Requires ``straggler_detection``.
    brownout_enabled: bool = False
    brownout_enter_pressure: float = 0.25
    brownout_exit_pressure: float = 0.0
    brownout_capacity_factor: float = 0.5
    brownout_rate_factor: float = 0.5
    # -- resize-aware admission ---------------------------------------------
    #: Ramp admission capacity (and the token-bucket rate) linearly with
    #: transfer progress during a resize window instead of stepping to
    #: the target placement's capacity at prepare.
    resize_admission_ramp: bool = False

    def validate(self) -> "ClusterConfig":
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.placement not in _PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {_PLACEMENTS}"
            )
        if self.segment_hops < 1:
            raise ConfigError(f"segment_hops must be >= 1, got {self.segment_hops}")
        if self.link_latency < 0:
            raise ConfigError(f"negative link_latency {self.link_latency}")
        if self.link_bandwidth <= 0:
            raise ConfigError(f"link_bandwidth must be > 0, got {self.link_bandwidth}")
        if self.walk_bytes < 1:
            raise ConfigError(f"walk_bytes must be >= 1, got {self.walk_bytes}")
        for name in ("link_loss_prob", "link_corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {p}")
        if self.reliable_fallback_latency < 0:
            raise ConfigError(
                f"negative reliable_fallback_latency {self.reliable_fallback_latency}"
            )
        _RESIZE_KINDS = ("grow", "shrink", "rebalance")
        for entry in self.resize_schedule:
            if len(entry) != 3:
                raise ConfigError(
                    f"resize entries are (t, kind, arg) triples, got {entry!r}"
                )
            t, kind, arg = entry
            if t < 0:
                raise ConfigError(f"resize time must be >= 0, got {t}")
            if kind not in _RESIZE_KINDS:
                raise ConfigError(
                    f"unknown resize kind {kind!r}; expected one of {_RESIZE_KINDS}"
                )
            if kind == "grow" and int(arg) < 1:
                raise ConfigError(f"grow must add >= 1 shard, got {arg}")
            if kind == "shrink" and int(arg) < 0:
                raise ConfigError(f"shrink shard id must be >= 0, got {arg}")
            if kind == "rebalance" and self.placement != "range":
                raise ConfigError("rebalance requires range placement")
        if self.resize_transfer_budget_epochs < 1:
            raise ConfigError(
                "resize_transfer_budget_epochs must be >= 1, got "
                f"{self.resize_transfer_budget_epochs}"
            )
        if self.rebalance_enabled and self.placement != "range":
            raise ConfigError("rebalance_enabled requires range placement")
        for name in ("rebalance_check_epochs", "rebalance_window_epochs",
                     "rebalance_cooldown_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.rebalance_imbalance_ratio < 1.0:
            raise ConfigError(
                "rebalance_imbalance_ratio must be >= 1, got "
                f"{self.rebalance_imbalance_ratio}"
            )
        if self.rebalance_min_walks < 0:
            raise ConfigError(
                f"negative rebalance_min_walks {self.rebalance_min_walks}"
            )
        # Grows mint new physical ids above n_shards, so a scheduled
        # kill may legally target a not-yet-added shard.
        max_physical = self.n_shards + sum(
            int(arg) for _, kind, arg in self.resize_schedule if kind == "grow"
        )
        for t, shard in self.kill_schedule:
            if t < 0:
                raise ConfigError(f"kill time must be >= 0, got {t}")
            if not 0 <= int(shard) < max_physical:
                raise ConfigError(
                    f"kill shard {shard} out of range for {max_physical} "
                    "possible shards"
                )
        if not 0.0 <= self.kill_epoch_frac <= 1.0:
            raise ConfigError(
                f"kill_epoch_frac must be in [0, 1], got {self.kill_epoch_frac}"
            )
        if self.max_inflight_walks_per_shard < 1:
            raise ConfigError(
                "max_inflight_walks_per_shard must be >= 1, got "
                f"{self.max_inflight_walks_per_shard}"
            )
        if self.audit_interval_epochs < 0:
            raise ConfigError(
                f"negative audit_interval_epochs {self.audit_interval_epochs}"
            )
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        for entry in self.link_slow_windows:
            if len(entry) != 3:
                raise ConfigError(
                    "link_slow_windows entries are (t_start, t_end, factor) "
                    f"triples, got {entry!r}"
                )
            t0, t1, factor = entry
            if t0 < 0 or t1 <= t0:
                raise ConfigError(
                    f"link slow window must satisfy 0 <= t_start < t_end, "
                    f"got ({t0}, {t1})"
                )
            if factor < 1.0:
                raise ConfigError(
                    f"link slow factor must be >= 1, got {factor}"
                )
        for name in ("straggler_window_epochs", "straggler_min_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.straggler_min_epochs > self.straggler_window_epochs:
            raise ConfigError(
                "straggler_min_epochs cannot exceed straggler_window_epochs"
            )
        if self.straggler_median_multiple < 1.0:
            raise ConfigError(
                "straggler_median_multiple must be >= 1, got "
                f"{self.straggler_median_multiple}"
            )
        if self.hedging_enabled and not self.straggler_detection:
            raise ConfigError(
                "hedging_enabled requires straggler_detection (hedges are "
                "only issued against suspect shards)"
            )
        if self.hedge_delay < 0:
            raise ConfigError(f"negative hedge_delay {self.hedge_delay}")
        if self.query_retry_budget < 0:
            raise ConfigError(
                f"negative query_retry_budget {self.query_retry_budget}"
            )
        if self.brownout_enabled and not self.straggler_detection:
            raise ConfigError(
                "brownout_enabled requires straggler_detection (brownout is "
                "driven by straggler pressure)"
            )
        if not 0.0 < self.brownout_enter_pressure <= 1.0:
            raise ConfigError(
                "brownout_enter_pressure must be in (0, 1], got "
                f"{self.brownout_enter_pressure}"
            )
        if not 0.0 <= self.brownout_exit_pressure < self.brownout_enter_pressure:
            raise ConfigError(
                "brownout_exit_pressure must be in [0, enter_pressure), got "
                f"{self.brownout_exit_pressure}"
            )
        for name in ("brownout_capacity_factor", "brownout_rate_factor"):
            f = getattr(self, name)
            if not 0.0 < f <= 1.0:
                raise ConfigError(f"{name} must be in (0, 1], got {f}")
        self.rpc_policy(seed=0).validate()
        self.service_cfg().validate()
        return self

    def metrics_cfg(self):
        """The :class:`~repro.obs.metrics.MetricsConfig` the router
        registry and per-shard engines share (the default grid)."""
        from ..obs.metrics import MetricsConfig

        return MetricsConfig()

    def rpc_policy(self, seed: int) -> RetryPolicy:
        """Migration-RPC retransmit backoff: doubling from
        ``rpc_base_delay``, capped at 200 us, with up to 25% jitter."""
        return RetryPolicy(
            base_delay=self.rpc_base_delay,
            factor=2.0,
            max_delay=200e-6,
            max_attempts=self.rpc_max_attempts,
            jitter_frac=0.25,
            seed=seed,
            salt="cluster-rpc",
        )

    def service_cfg(self) -> ServiceConfig:
        """Admission/breaker knobs repackaged for the reused
        :class:`~repro.service.queue.AdmissionQueue` and
        :class:`~repro.service.breaker.CircuitBreaker`."""
        return ServiceConfig(
            queue_capacity=self.queue_capacity,
            admission_policy=self.admission_policy,
            rate_limit_qps=self.rate_limit_qps,
            rate_limit_burst=self.rate_limit_burst,
            max_inflight_walks=self.max_inflight_walks_per_shard,
            max_walk_length=self.max_walk_length,
            breaker_enabled=self.breaker_enabled,
            breaker_cooldown=self.breaker_cooldown,
            breaker_exhausted_threshold=self.breaker_exhausted_threshold,
            breaker_corruption_threshold=self.breaker_corruption_threshold,
        )
