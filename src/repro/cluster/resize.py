"""Failure-safe elastic membership: live shard add/remove/rebalance.

A membership change is an ordinary, interruptible operation here — the
cluster keeps serving while it runs, and every step is survivable:

* **prepare** (one barrier): build the epoch+1 target
  :class:`~repro.cluster.placement.VertexPlacement`.  A grow spins up
  fresh :class:`~repro.cluster.shard.ShardRuntime`\\ s through the live
  :class:`~repro.cluster.pool.ShardHosts`; a shrink marks a departing
  shard; a rebalance recuts range bounds from the
  :class:`~repro.cluster.health.HealthBoard`'s trailing per-shard load
  window.  The target placement is *not* yet authoritative — it is the
  routing map, so newly-collected segments and new walks flow to their
  future owners while existing residents are handed off.
* **transfer** (one or more barriers): at each barrier, every resident
  walk whose target owner differs from its current shard is handed off
  over the existing :class:`~repro.cluster.link.NetworkLink` — same
  latency/bandwidth charges, same seeded loss/corruption faults, same
  :class:`~repro.common.backoff.RetryPolicy` retransmits and
  reliable-fallback escalation, so a handoff batch is *delayed, never
  dropped*.  A batch whose destination breaker is open defers (the walk
  keeps executing where it is and retries next barrier).  A shard
  killed mid-handoff promotes its replica inside its epoch step and
  replays the identical injection schedule from its epoch checkpoint —
  including the handoff deliveries — so conservation survives the kill.
* **commit** (one barrier): once no walk is resident on a wrong shard
  and nothing is in handoff flight, the target becomes the committed
  placement (epoch bump), departing shards are retired (engine
  finalized, health/breaker/link state retired), and the resize record
  closes with its measured RTO (prepare → commit wall in cluster time)
  and RPO (walk segments replayed from epoch checkpoints by kills that
  landed during the window).
* **abort → rollback**: a transfer that exceeds
  ``resize_transfer_budget_epochs`` barriers (e.g. a permanently
  breaker-open target) aborts: the *old* placement becomes the routing
  target again and the same transfer machinery drains every walk back
  (rollback ignores breaker deferrals so it always terminates); shards
  added by the aborted grow are removed once empty, and the committed
  placement — never swapped — is untouched.

The controller is driven synchronously by the coordinator at every
epoch barrier, draws no randomness of its own (the link's seeded
stream is the only RNG touched, and only when a handoff actually
transmits), and does nothing at all when no resize is scheduled or
active — which is why no-resize runs stay byte-identical.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigError, SimulationError

__all__ = ["ResizeRequest", "ResizeController", "rebalanced_bounds"]

IDLE, TRANSFER, ROLLBACK = "idle", "transfer", "rollback"

#: ``cluster_resize_phase`` gauge encoding (0 also means "no resize").
PHASE_GAUGE = {IDLE: 0.0, TRANSFER: 2.0, ROLLBACK: 3.0}


@dataclass(frozen=True)
class ResizeRequest:
    """One scheduled membership change.

    ``kind`` is ``grow`` (``arg`` = shards to add), ``shrink``
    (``arg`` = physical shard id to remove), or ``rebalance``
    (``bounds`` = explicit range cuts, or None to recut from the
    health board's load window at prepare time).  ``auto`` marks
    requests the load-driven trigger enqueued itself.
    """

    at: float
    kind: str
    arg: int = 0
    bounds: tuple | None = None
    auto: bool = False


def rebalanced_bounds(bounds, loads) -> tuple[int, ...]:
    """Recut range bounds so each slot gets ~equal observed load.

    ``loads[slot]`` is the trailing-window walk load of the shard in
    that slot.  Load is assumed uniform *within* each current range
    (the only density estimate the per-shard counters support), so the
    new cut for slot ``k`` lands where the piecewise-linear cumulative
    load crosses ``k/n`` of the total.  Pure integer/float arithmetic —
    deterministic, no RNG — and the result is clamped to strictly
    increasing cuts with at least one vertex per slot.
    """
    n = len(loads)
    if len(bounds) != n + 1:
        raise ConfigError(f"{len(bounds)} bounds for {n} loads")
    total = float(sum(loads))
    n_vertices = bounds[-1]
    if total <= 0.0 or n_vertices < n:
        return tuple(bounds)
    cum = [0.0]
    for load in loads:
        cum.append(cum[-1] + float(load))
    new = [int(bounds[0])]
    for k in range(1, n):
        tgt = total * k / n
        seg = min(bisect_right(cum, tgt) - 1, n - 1)
        lo, hi = int(bounds[seg]), int(bounds[seg + 1])
        seg_load = float(loads[seg])
        frac = 0.0 if seg_load <= 0.0 else (tgt - cum[seg]) / seg_load
        cut = lo + int(round(frac * (hi - lo)))
        cut = max(cut, new[-1] + 1)          # ≥1 vertex per earlier slot
        cut = min(cut, int(n_vertices) - (n - k))  # room for later slots
        new.append(cut)
    new.append(int(n_vertices))
    return tuple(new)


class ResizeController:
    """Barrier-synchronous two-phase handoff state machine.

    Owned by :class:`~repro.cluster.cluster.ClusterService`; ``tick``
    runs at every epoch barrier between the health poll and leasing,
    so a walk is never simultaneously leased and handed off.
    """

    def __init__(self, cluster, ccfg):
        self.cl = cluster
        self.ccfg = ccfg
        self.pending: list[ResizeRequest] = sorted(
            (
                ResizeRequest(at=float(t), kind=str(kind), arg=int(arg))
                for t, kind, arg in ccfg.resize_schedule
            ),
            key=lambda r: r.at,
        )
        self.phase = IDLE
        #: Routing placement while a transfer/rollback is in flight.
        self.target = None
        #: Committed placement snapshot the active resize started from.
        self.old = None
        self.record: dict | None = None
        self.records: list[dict] = []
        self.aborts = 0
        self.rebalances = 0
        self.handoff_walks = 0
        self.handoff_batches = 0
        self.deferred_batches = 0
        self._transfer_epochs = 0
        # Wrong-owner walk counts backing :meth:`transfer_progress`
        # (resize-aware admission ramp).  ``-1`` = not yet measured.
        self._wrong_initial = -1
        self._wrong_now = 0
        self._rollback_remove: list[int] = []
        self._cooldown_until_epoch = 0
        self._phase_recorded = 0.0
        #: (epoch, record) of the most recently finished resize, so a
        #: kill whose failover is processed later in the same barrier
        #: (the commit epoch steps handoff-delivered walks) is still
        #: attributed to the resize it interrupted.
        self._last_finished: tuple[int, dict] | None = None

    # ------------------------------------------------------------- queries

    def routing_placement(self):
        """The ownership map the router must use *right now*: the
        resize target mid-transition, the committed placement
        otherwise.  Epoch-versioned, so shards/auditor/router agree."""
        return self.target if self.target is not None else self.cl.placement

    def active(self) -> bool:
        return self.phase != IDLE

    def transfer_progress(self) -> float:
        """Fraction of the active transfer's initial wrong-owner walks
        already redirected, in [0, 1].  1.0 when idle or rolling back
        (rollback routes by the committed placement, whose capacity
        needs no ramp).  Drives the resize-aware admission ramp."""
        if self.phase != TRANSFER or self._wrong_initial <= 0:
            return 1.0
        done = 1.0 - self._wrong_now / self._wrong_initial
        return min(1.0, max(0.0, done))

    def next_event_after(self, T: float) -> float | None:
        """Next scheduled prepare time beyond ``T`` (idle-clock hook)."""
        if self.phase == IDLE and self.pending:
            t = self.pending[0].at
            if t > T:
                return t
        return None

    def note_failover(self, failover: dict) -> None:
        """A shard kill landed; if a handoff window is open, account
        its replayed segments as the resize's RPO exposure.  A kill
        processed in the same barrier the resize finished (the commit
        epoch still steps handoff-delivered walks) counts too."""
        rec = self.record
        if (
            rec is None
            and self._last_finished is not None
            and self._last_finished[0] == self.cl.epoch
        ):
            rec = self._last_finished[1]
        if rec is not None:
            rec["kills_during"] += 1
            rec["rpo_walks"] += int(
                failover.get("segments_discarded", 0)
            )

    # ---------------------------------------------------------------- tick

    def tick(self, T: float, hosts, open_now: list[bool]) -> None:
        """Advance the protocol one barrier step at cluster time ``T``."""
        if self.phase == IDLE:
            self._maybe_rebalance(T)
            if self.pending and self.pending[0].at <= T:
                self._prepare(self.pending.pop(0), T, hosts)
        if self.phase != IDLE:
            self._transfer_step(T, hosts, open_now)
        self._record_phase(T)

    def _record_phase(self, T: float) -> None:
        mx = self.cl.telemetry
        if mx is None:
            return
        value = PHASE_GAUGE[self.phase]
        if value != self._phase_recorded:
            self._phase_recorded = value
            mx.gauge("cluster_resize_phase").set(value, T)

    # ------------------------------------------------------------- prepare

    def _prepare(self, req: ResizeRequest, T: float, hosts) -> None:
        cl = self.cl
        old = cl.placement
        added: list[int] = []
        removed: list[int] = []
        if req.kind == "grow":
            added = cl.add_shards(req.arg, hosts)
            target = old.grown(added)
        elif req.kind == "shrink":
            sid = int(req.arg)
            if sid not in old.shard_ids:
                raise SimulationError(
                    f"resize: cannot shrink shard {sid}: not in live "
                    f"placement {old.shard_ids}"
                )
            target = old.shrunk(sid)
            removed = [sid]
        elif req.kind == "rebalance":
            bounds = req.bounds
            if bounds is None:
                loads = cl.health.window_loads(old.shard_ids)
                bounds = rebalanced_bounds(old.bounds, loads)
            if tuple(bounds) == tuple(old.bounds):
                return  # no-op recut; stay idle, no record
            target = old.rebalanced(bounds)
        else:  # pragma: no cover - config validation rejects earlier
            raise SimulationError(f"unknown resize kind {req.kind!r}")
        cl.auditor.check_placement(target)
        self.old = old
        self.target = target
        self.phase = TRANSFER
        self._transfer_epochs = 0
        self.record = {
            "kind": req.kind,
            "auto": req.auto,
            "requested_at": req.at,
            "prepare_t": T,
            "prepare_epoch": cl.epoch,
            "from_epoch": old.epoch,
            "to_epoch": target.epoch,
            "added": added,
            "removed": removed,
            "walks_handed_off": 0,
            "handoff_batches": 0,
            "deferred_batches": 0,
            "kills_during": 0,
            "rpo_walks": 0,
        }
        mx = cl.telemetry
        if mx is not None:
            mx.counter("cluster_resizes", kind=req.kind).inc(1.0, T)

    # ------------------------------------------------------------ transfer

    def _handoff_candidates(self, T: float):
        """Resident walks on target-foreign shards, plus the count of
        wrong-bound walks still in link flight (can't be redirected)."""
        target = self.target
        movable = []
        in_flight_wrong = 0
        for wid in sorted(self.cl.live_walks):
            w = self.cl.live_walks[wid]
            dst = int(target.shard_of(np.int64(w.vertex)))
            if dst == w.shard:
                continue
            if w.state == "migrating" and w.eligible_at > T:
                in_flight_wrong += 1  # redirected once it lands
            else:
                movable.append((w, dst))
        return movable, in_flight_wrong

    def _transfer_step(self, T: float, hosts, open_now: list[bool]) -> None:
        cl = self.cl
        rec = self.record
        movable, in_flight_wrong = self._handoff_candidates(T)
        self._wrong_now = len(movable) + in_flight_wrong
        if self._wrong_initial < 0:
            self._wrong_initial = self._wrong_now
        batches: dict[tuple[int, int], list] = {}
        for w, dst in movable:
            batches.setdefault((w.shard, dst), []).append(w)
        deferred = 0
        for (src, dst) in sorted(batches):
            # A breaker-open destination defers the batch — unless this
            # is a rollback, which must always make progress home.
            if self.phase == TRANSFER and dst < len(open_now) and open_now[dst]:
                deferred += 1
                continue
            batch = batches[(src, dst)]
            delivery = cl.link.transmit(T, len(batch), src=src, dst=dst)
            for w in batch:
                w.state = "migrating"
                w.shard = dst
                w.eligible_at = delivery
                w.handoffs += 1
            cl.handoffs_out[src] += len(batch)
            cl.handoffs_in[dst] += len(batch)
            self.handoff_walks += len(batch)
            self.handoff_batches += 1
            rec["walks_handed_off"] += len(batch)
            rec["handoff_batches"] += 1
            mx = cl.telemetry
            if mx is not None:
                mx.counter("cluster_handoff_walks").inc(float(len(batch)), T)
        if deferred:
            self.deferred_batches += deferred
            rec["deferred_batches"] += deferred
            mx = cl.telemetry
            if mx is not None:
                mx.counter("cluster_handoff_deferrals").inc(float(deferred), T)
        if deferred == 0 and in_flight_wrong == 0 and not batches:
            # Every walk already sits with (or is flying to) its target
            # owner: the barrier is clean — finish the protocol.
            if self.phase == TRANSFER:
                self._commit(T, hosts)
            else:
                self._finish_rollback(T, hosts)
            return
        self._transfer_epochs += 1
        # Rollback is exempt from the budget: it ignores breaker
        # deferrals and link deliveries are finite, so it always
        # terminates (max_epochs is the runaway backstop).
        if (
            self.phase == TRANSFER
            and self._transfer_epochs > self.ccfg.resize_transfer_budget_epochs
        ):
            self._abort(T)

    # ------------------------------------------------------- commit / abort

    def _commit(self, T: float, hosts) -> None:
        cl = self.cl
        rec = self.record
        departing = [s for s in self.old.shard_ids
                     if s not in self.target.shard_ids]
        cl.placement = self.target
        cl.auditor.check_placement(cl.placement)
        for sid in sorted(departing):
            cl.retire_shard(sid, hosts)
        rec.update(
            committed=True,
            commit_t=T,
            commit_epoch=cl.epoch,
            transfer_epochs=self._transfer_epochs,
            rto_time=T - rec["prepare_t"],
        )
        self._finish(rec, T)

    def _abort(self, T: float) -> None:
        """Budget exhausted: turn around and drain everything home."""
        rec = self.record
        rec.update(aborted=True, abort_t=T, abort_epoch=self.cl.epoch)
        self.aborts += 1
        # Shards the aborted grow added must be emptied, then removed.
        self._rollback_remove = sorted(
            s for s in self.target.shard_ids if s not in self.old.shard_ids
        )
        self.target = self.old  # route everything back where it was
        self.phase = ROLLBACK
        self._transfer_epochs = 0
        mx = self.cl.telemetry
        if mx is not None:
            mx.counter("cluster_resize_aborts").inc(1.0, T)

    def _finish_rollback(self, T: float, hosts) -> None:
        cl = self.cl
        rec = self.record
        for sid in self._rollback_remove:
            cl.retire_shard(sid, hosts)
        self._rollback_remove = []
        rec.update(
            committed=False,
            rolled_back_t=T,
            rollback_epochs=self._transfer_epochs,
        )
        # Committed placement was never swapped: the old map, same
        # epoch, is still authoritative — the clean abort guarantee.
        self._finish(rec, T)

    def _finish(self, rec: dict, T: float) -> None:
        self._last_finished = (self.cl.epoch, rec)
        self.records.append(rec)
        self.record = None
        self.target = None
        self.old = None
        self.phase = IDLE
        self._transfer_epochs = 0
        self._wrong_initial = -1
        self._wrong_now = 0
        self._cooldown_until_epoch = (
            self.cl.epoch + self.ccfg.rebalance_cooldown_epochs
        )

    # ----------------------------------------------------------- rebalance

    def _maybe_rebalance(self, T: float) -> None:
        ccfg = self.ccfg
        cl = self.cl
        if not ccfg.rebalance_enabled or cl.placement.mode != "range":
            return
        if cl.epoch == 0 or cl.epoch < self._cooldown_until_epoch:
            return
        if cl.epoch % ccfg.rebalance_check_epochs != 0:
            return
        loads = cl.health.window_loads(cl.placement.shard_ids)
        total = sum(loads)
        if total < ccfg.rebalance_min_walks:
            return
        mean = total / len(loads)
        if max(loads) < ccfg.rebalance_imbalance_ratio * mean:
            return
        bounds = rebalanced_bounds(cl.placement.bounds, loads)
        if tuple(bounds) == tuple(cl.placement.bounds):
            return
        self.rebalances += 1
        self._cooldown_until_epoch = cl.epoch + ccfg.rebalance_cooldown_epochs
        mx = cl.telemetry
        if mx is not None:
            mx.counter("cluster_rebalances").inc(1.0, T)
        self.pending.insert(
            0,
            ResizeRequest(at=T, kind="rebalance", bounds=tuple(bounds),
                          auto=True),
        )

    # --------------------------------------------------------------- report

    def stats(self) -> dict:
        records = list(self.records)
        if self.record is not None:
            records = records + [dict(self.record, unfinished=True)]
        rtos = [r["rto_time"] for r in records if "rto_time" in r]
        return {
            "resizes": records,
            "unfired": [
                [r.at, r.kind, r.arg] for r in self.pending
            ],
            "handoff": {
                "walks": self.handoff_walks,
                "batches": self.handoff_batches,
                "deferred_batches": self.deferred_batches,
                "aborts": self.aborts,
                "rebalances": self.rebalances,
                "rpo_walks": sum(r["rpo_walks"] for r in records),
                "rto": {
                    "count": len(rtos),
                    "max": float(max(rtos, default=0.0)),
                    "mean": float(sum(rtos) / len(rtos)) if rtos else 0.0,
                },
            },
        }
