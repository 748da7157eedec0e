"""Cluster-wide walk/query conservation auditor.

Extends the single-device service auditor's invariants
(:mod:`repro.service.audit`) across shards: every walk the router
created is, at every epoch barrier, in exactly one of QUEUED, LEASED,
MIGRATING, or DONE; per-shard engine totals match the segments the
router leased there; walks credited to queries equal the walks that
finished; queries conserve across ok/timed-out/shed/pending.  The
auditor runs online — every ``audit_interval_epochs`` barriers and
once at the end — so a kill or link fault that loses or duplicates a
walk is caught at the barrier where it happens, not at the end of the
campaign.

Violations raise :class:`~repro.common.errors.InvariantViolation` with
``context="cluster"`` and a *bounded* state dump (walk tables truncate
past ``InvariantViolation.MAX_STATE_ITEMS`` entries), so a 4-shard
chaos soak failing in CI stays readable.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import InvariantViolation

__all__ = ["ClusterAuditor"]

_STATES = ("queued", "leased", "migrating", "done")

#: Above this vertex count ownership is spot-checked at the cut
#: boundaries instead of exhaustively (placements near the int64
#: overflow regime would otherwise need 2**60-element scans).
_EXHAUSTIVE_VERTS = 1 << 20


class ClusterAuditor:
    """Barrier-time consistency checker over one cluster run."""

    def __init__(self, cluster, interval_epochs: int):
        self.cluster = cluster
        self.interval_epochs = interval_epochs
        self.audits = 0
        self.violations_found = 0
        self._last_t = 0.0

    def check_placement(self, placement) -> None:
        """Prove a placement is a partition of the vertex space: every
        vertex owned by exactly one *live* slot, histogram summing to
        ``n_vertices``.  Called at resize prepare and commit barriers so
        router/shards/auditor can never adopt a torn ownership map."""
        violations: list[str] = []
        V = placement.n_vertices
        if V <= _EXHAUSTIVE_VERTS:
            vertices = np.arange(V, dtype=np.int64)
        else:
            probes = [0, V - 1]
            for b in (placement.bounds or ()):
                for v in (b - 1, b):
                    if 0 <= v < V:
                        probes.append(int(v))
            vertices = np.asarray(sorted(set(probes)), dtype=np.int64)
        slots = placement.slot_of(vertices)
        if slots.size and (
            int(slots.min()) < 0 or int(slots.max()) >= placement.n_shards
        ):
            violations.append(
                f"placement epoch {placement.epoch}: slot out of range "
                f"[{int(slots.min())}, {int(slots.max())}] for "
                f"{placement.n_shards} slots"
            )
        else:
            counts = np.bincount(slots, minlength=placement.n_shards)
            if int(counts.sum()) != int(vertices.size):
                violations.append(
                    f"placement epoch {placement.epoch}: {int(counts.sum())} "
                    f"owned of {int(vertices.size)} vertices checked"
                )
            if V <= _EXHAUSTIVE_VERTS and placement.mode == "range" and (
                int(counts.min()) == 0
            ):
                violations.append(
                    f"placement epoch {placement.epoch}: empty range slot "
                    f"(counts {counts.tolist()})"
                )
        if violations:
            self.violations_found += len(violations)
            raise InvariantViolation(
                f"placement audit found {len(violations)} violation(s): "
                f"{violations[0]}",
                violations=violations,
                state={"placement": placement.describe()},
                at=self.cluster.now,
                context="cluster",
            )

    def maybe_audit(self, epoch: int) -> None:
        if self.interval_epochs <= 0:
            return
        if epoch % self.interval_epochs == 0:
            self.audit()

    def audit(self, final: bool = False) -> None:
        cl = self.cluster
        now = cl.now
        self.audits += 1
        violations: list[str] = []

        if now < self._last_t:
            violations.append(
                f"cluster time moved backwards: {self._last_t} -> {now}"
            )
        self._last_t = max(self._last_t, now)

        # Walk conservation: every created walk in exactly one state.
        # Both copies of a hedged lease resolve at the barrier they were
        # issued in, so no walk may still carry a hedge shard here.
        counts = dict.fromkeys(_STATES, 0)
        for w in cl.walks.values():
            if w.state not in counts:
                violations.append(f"walk {w.wid} in unknown state {w.state!r}")
            else:
                counts[w.state] += 1
            if w.hedge_shard is not None:
                violations.append(
                    f"walk {w.wid} ({w.state}) still hedged to shard "
                    f"{w.hedge_shard} at the barrier"
                )
        if len(cl.walks) != cl.walks_created:
            violations.append(
                f"walk table holds {len(cl.walks)} walks but router created "
                f"{cl.walks_created} (lost or duplicated ids)"
            )
        accounted = sum(counts.values())
        if accounted != cl.walks_created:
            violations.append(
                "walk conservation: "
                + " + ".join(f"{s} {counts[s]}" for s in _STATES)
                + f" = {accounted} != created {cl.walks_created}"
            )
        if counts["done"] != cl.walks_done:
            violations.append(
                f"done-state walks {counts['done']} != done counter "
                f"{cl.walks_done}"
            )
        live = len(cl.walks) - counts["done"]
        if len(cl.live_walks) != live:
            violations.append(
                f"live walk table holds {len(cl.live_walks)} walks but "
                f"{live} are not done"
            )
        if final and accounted != counts["done"]:
            violations.append(
                f"final audit: {accounted - counts['done']} walks not done"
            )

        # No live walk may reside on (or be flying to) a retired shard.
        retired = cl.health.retired
        if retired:
            for w in cl.live_walks.values():
                if w.shard in retired:
                    violations.append(
                        f"walk {w.wid} ({w.state}) resident on retired "
                        f"shard {w.shard}"
                    )

        # Per-shard engines drained and fed exactly what the router
        # leased (physical ids: retired shards keep frozen counters).
        for sid in range(len(cl.engine_totals)):
            total = cl.engine_totals[sid]
            injected = cl.segments_injected[sid]
            if total != injected:
                violations.append(
                    f"shard {sid}: engine boarded {total} segments but "
                    f"router leased {injected}"
                )
            completed = cl.engine_completed[sid]
            if completed != total:
                violations.append(
                    f"shard {sid}: {total - completed} segments in flight "
                    "across an epoch barrier"
                )
            if cl.segments_collected[sid] != completed:
                violations.append(
                    f"shard {sid}: engine completed {completed} segments but "
                    f"router collected {cl.segments_collected[sid]}"
                )

        # Segment ledger, on every run (an unhedged run is the
        # zero-duplicate case): collected segments split exactly into
        # one commit per lease plus the discarded hedge losers
        # (exactly-one-commit duplicate suppression), and every issued
        # hedge produced exactly one winner and one loser.
        collected = sum(cl.segments_collected)
        if collected != cl.segments_committed + cl.hedge_wasted_segments:
            violations.append(
                f"segment ledger: collected {collected} != committed "
                f"{cl.segments_committed} + hedge-wasted "
                f"{cl.hedge_wasted_segments}"
            )
        wins = cl.hedge_wins_primary + cl.hedge_wins_hedge
        if wins != cl.hedges_issued:
            violations.append(
                f"hedge resolution: {cl.hedges_issued} issued but "
                f"{wins} resolved (primary {cl.hedge_wins_primary} + "
                f"hedge {cl.hedge_wins_hedge})"
            )
        if cl.hedge_wasted_segments != cl.hedges_issued:
            violations.append(
                f"hedge waste: {cl.hedges_issued} hedges must discard "
                f"exactly one loser each, counted "
                f"{cl.hedge_wasted_segments}"
            )

        # Attribution (finished walks credit exactly one query each)
        # and query conservation.
        violations.extend(cl.ledger.audit_errors(cl.walks_done, final=final))

        if violations:
            self.violations_found += len(violations)
            kind = "final cluster audit" if final else "cluster audit"
            raise InvariantViolation(
                f"{kind} at t={now:.6g}s found {len(violations)} "
                f"violation(s): {violations[0]}",
                violations=violations,
                state=self._state_dump(),
                at=now,
                context="cluster",
            )

    def _state_dump(self) -> dict:
        cl = self.cluster
        return {
            "now": cl.now,
            "epoch": cl.epoch,
            "walks_created": cl.walks_created,
            "walks_done": cl.walks_done,
            **cl.ledger.dump(),
            "engine_totals": list(cl.engine_totals),
            "segments_injected": list(cl.segments_injected),
            # Truncated by InvariantViolation's dump bounding.
            "walk_table": [
                (w.wid, w.state, w.shard, w.remaining)
                for w in cl.walks.values()
                if w.state != "done"
            ],
        }

    def stats(self) -> dict:
        return {
            "interval_epochs": self.interval_epochs,
            "audits": self.audits,
            "violations": self.violations_found,
        }
