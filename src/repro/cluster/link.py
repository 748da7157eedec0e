"""Modeled inter-shard network link with seeded faults.

Migration messages ride a shared latency/bandwidth link.  Each attempt
draws seeded loss and corruption faults from a dedicated stream (never
the engines' streams, so cluster runs and single-device runs share
walk trajectories); a failed attempt retransmits after the shared
:class:`~repro.common.backoff.RetryPolicy` delay, and an exhausted
retry loop escalates to a slow reliable path — messages are delayed,
never dropped, so the link can lose packets without the cluster ever
losing a walk.

All transmissions are issued by the coordinator in deterministic
``(epoch, src_shard, dst_shard)`` order, so the fault draws — and with
them every delivery time — are identical across serial and
process-pool executions.
"""

from __future__ import annotations

import numpy as np

from ..common.backoff import RetryPolicy
from ..common.rng import derive_seed

__all__ = ["NetworkLink"]


class NetworkLink:
    """Fault-injected point-to-point delivery between shards."""

    def __init__(self, cfg, seed: int):
        self.cfg = cfg
        self.policy: RetryPolicy = cfg.rpc_policy(seed).validate()
        self._rng = np.random.default_rng(derive_seed(seed, "cluster:link"))
        self.messages = 0
        self.walks_moved = 0
        self.bytes_moved = 0
        self.losses = 0
        self.corruptions = 0
        self.retransmits = 0
        self.escalations = 0
        self.total_delay = 0.0
        # Gray-failure layer: slow windows stretch attempt spans without
        # tripping any fault counter; budget caps bound retransmits per
        # call; ``last_retransmits`` lets callers charge per-query retry
        # budgets for the batch they just sent.
        self.slow_windows: tuple[tuple[float, float, float], ...] = tuple(
            sorted(tuple(w) for w in getattr(cfg, "link_slow_windows", ()))
        )
        self.slow_transmits = 0
        self.slow_delay_added = 0.0
        self.budget_escalations = 0
        self.last_retransmits = 0
        self.last_escalated = False
        # Optional per-(src, dst) traffic accounting.  Pairs touching a
        # retired shard are folded into a single tombstone so a removed
        # shard's counters cannot linger as live reroute/report state.
        self.pair_messages: dict[tuple[int, int], int] = {}
        self.pair_walks: dict[tuple[int, int], int] = {}
        self._retired: set[int] = set()

    def _note_pair(self, src, dst, n_walks: int) -> None:
        if src is None or dst is None:
            return
        key = (int(src), int(dst))
        if key[0] in self._retired or key[1] in self._retired:
            key = (-1, -1)
        self.pair_messages[key] = self.pair_messages.get(key, 0) + 1
        self.pair_walks[key] = self.pair_walks.get(key, 0) + n_walks

    def retire_shard(self, shard_id: int) -> None:
        """Fold a departed shard's per-pair counters into the
        ``("retired", "retired")`` tombstone and refuse future
        attribution to it — stale pairs must not survive a removal."""
        sid = int(shard_id)
        self._retired.add(sid)
        for table in (self.pair_messages, self.pair_walks):
            dead = [k for k in table if sid in k]
            folded = sum(table.pop(k) for k in dead)
            if folded:
                key = (-1, -1)
                table[key] = table.get(key, 0) + folded

    def _span_at(self, t: float, span: float) -> float:
        """One attempt's wire time at send time ``t`` (slow windows
        compound multiplicatively; the common no-window case costs one
        truthiness check)."""
        if not self.slow_windows:
            return span
        factor = 1.0
        for t0, t1, f in self.slow_windows:
            if t0 > t:
                break
            if t < t1:
                factor *= f
        if factor > 1.0:
            self.slow_transmits += 1
            self.slow_delay_added += span * (factor - 1.0)
            return span * factor
        return span

    def transmit(self, t_send: float, n_walks: int,
                 *, src: int | None = None, dst: int | None = None,
                 max_retries: int | None = None) -> float:
        """Deliver one migration batch; returns the delivery time.

        Loss eats the message in flight; corruption is detected at the
        receiver (checksum) and rejected — both cost a full timeout +
        backoff before the retransmit.  After ``rpc_max_attempts``
        failed tries the sender escalates to the reliable fallback
        path, which always succeeds.  ``max_retries`` (per-query retry
        budgets) tightens that bound for one call: once the batch has
        retransmitted that many times it escalates immediately instead
        of burning more attempts past its queries' deadlines.
        """
        cfg = self.cfg
        nbytes = n_walks * cfg.walk_bytes
        span = cfg.link_latency + nbytes / cfg.link_bandwidth
        self.messages += 1
        self.walks_moved += n_walks
        self.bytes_moved += nbytes
        self._note_pair(src, dst, n_walks)
        t = t_send
        attempt = 0
        retries = 0
        escalated = False
        while True:
            lost = float(self._rng.random()) < cfg.link_loss_prob
            corrupt = (not lost) and float(self._rng.random()) < cfg.link_corrupt_prob
            attempt += 1
            wire = self._span_at(t, span)
            if not lost and not corrupt:
                delivery = t + wire
                break
            if lost:
                self.losses += 1
            else:
                self.corruptions += 1
            if self.policy.exhausted(attempt):
                self.escalations += 1
                escalated = True
                delivery = t + wire + cfg.reliable_fallback_latency
                break
            if max_retries is not None and retries >= max_retries:
                # Budget spent: stop gambling on retransmits and take
                # the slow-but-certain path now.
                self.escalations += 1
                self.budget_escalations += 1
                escalated = True
                delivery = t + wire + cfg.reliable_fallback_latency
                break
            self.retransmits += 1
            retries += 1
            # Timeout covers the failed attempt's span, then back off.
            t += wire + self.policy.delay(attempt)
        self.last_retransmits = retries
        self.last_escalated = escalated
        self.total_delay += delivery - t_send
        return delivery

    def stats(self) -> dict:
        return {
            "messages": self.messages,
            "walks_moved": self.walks_moved,
            "bytes_moved": self.bytes_moved,
            "losses": self.losses,
            "corruptions": self.corruptions,
            "retransmits": self.retransmits,
            "escalations": self.escalations,
            "mean_delay": (
                self.total_delay / self.messages if self.messages else 0.0
            ),
            "slow_transmits": self.slow_transmits,
            "slow_delay_added": self.slow_delay_added,
            "budget_escalations": self.budget_escalations,
            # Per-pair walk counts; only callers that attribute traffic
            # (handoffs) fill it, so plain-migration runs report {}.
            "pairs": {
                f"{s}->{d}": self.pair_walks[(s, d)]
                for s, d in sorted(self.pair_walks)
            },
            "retired_pairs_folded": self.pair_walks.get((-1, -1), 0),
        }
