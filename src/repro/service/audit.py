"""Online invariant auditor for service runs.

Every ``audit_interval_events`` simulator events (and once more at the
end of the run), the auditor cross-checks the engine's accounting
against the service's own bookkeeping:

- **Walk conservation** — ``total == completed + in_transit +
  scheduler pending + foreigner store`` at every event boundary, and
  the engine's ``total_walks`` equals what the service injected.
- **Attribution conservation** — walks credited to queries sum to the
  engine's completed count (every walk carries its query id in
  ``src``).
- **Query conservation** — arrivals == responded (ok/timed out/shed)
  + still-pending, and none pending at the final audit.  This check
  and attribution are the query ledger's
  (:meth:`~repro.service.request.QueryLedger.audit_errors`).
- **Buffer occupancy** — no partition-walk-buffer entry holds more
  buffered walks than its declared capacity, no negative counts.
- **Scoreboard consistency** — the scheduler's per-block (pwb, fl)
  counts mirror the buffer exactly.
- **Monotone simulated time** — ``sim.now`` never moves backwards
  between audits.

Any violation raises :class:`~repro.common.errors.InvariantViolation`
carrying all failed checks plus a state dump for post-mortem.
"""

from __future__ import annotations

from ..common.errors import InvariantViolation

__all__ = ["ServiceAuditor"]


class ServiceAuditor:
    """Periodic cross-layer consistency checker over one service run."""

    def __init__(self, service, interval_events: int):
        self.service = service
        self.interval_events = interval_events
        self._last_audit_events = 0
        self._last_now = 0.0
        self.audits = 0
        self.violations_found = 0

    def maybe_audit(self) -> None:
        """Audit if at least ``interval_events`` events ran since last time."""
        if self.interval_events <= 0:
            return
        fw = self.service.fw
        if fw.sim.events_executed - self._last_audit_events >= self.interval_events:
            self.audit()

    def audit(self, final: bool = False) -> None:
        svc = self.service
        fw = svc.fw
        sim_now = fw.sim.now
        self._last_audit_events = fw.sim.events_executed
        self.audits += 1
        violations: list[str] = []

        if sim_now < self._last_now:
            violations.append(
                f"simulated time moved backwards: {self._last_now} -> {sim_now}"
            )
        self._last_now = max(self._last_now, sim_now)

        # Engine-side walk conservation at the event boundary.
        sched_pending = fw.scheduler.total_pending if fw.scheduler is not None else 0
        foreign = fw.foreign.total
        accounted = fw.completed_walks + fw.in_transit + sched_pending + foreign
        if accounted != fw.total_walks:
            violations.append(
                f"walk conservation: completed {fw.completed_walks} + in_transit "
                f"{fw.in_transit} + scheduled {sched_pending} + foreign {foreign} "
                f"= {accounted} != total {fw.total_walks}"
            )
        for name, value in (
            ("completed_walks", fw.completed_walks),
            ("in_transit", fw.in_transit),
            ("total_walks", fw.total_walks),
        ):
            if value < 0:
                violations.append(f"negative engine count {name} = {value}")

        # Service-side: everything the engine holds, the service injected.
        if fw.total_walks != svc.walks_injected:
            violations.append(
                f"engine holds {fw.total_walks} walks but service injected "
                f"{svc.walks_injected}"
            )
        violations.extend(
            svc.ledger.audit_errors(fw.completed_walks, final=final)
        )

        # Buffer occupancy and scoreboard consistency.
        if fw.pwb is not None:
            violations.extend(fw.pwb.occupancy_errors())
            if fw.scheduler is not None:
                violations.extend(fw.scheduler.consistency_errors(fw.pwb))
                buffered = fw.pwb.total_walks
                if buffered != sched_pending:
                    violations.append(
                        f"partition walk buffer holds {buffered} walks but "
                        f"scheduler tracks {sched_pending}"
                    )

        if violations:
            self.violations_found += len(violations)
            kind = "final audit" if final else "audit"
            raise InvariantViolation(
                f"{kind} at t={sim_now:.6g}s found {len(violations)} "
                f"violation(s): {violations[0]}",
                violations=violations,
                state=self._state_dump(),
                at=sim_now,
                context="service",
            )

    def _state_dump(self) -> dict:
        """Snapshot of the service/engine accounting for post-mortem."""
        svc = self.service
        fw = svc.fw
        return {
            "sim_now": fw.sim.now,
            "events_executed": fw.sim.events_executed,
            "total_walks": fw.total_walks,
            "completed_walks": fw.completed_walks,
            "in_transit": fw.in_transit,
            "scheduler_pending": (
                fw.scheduler.total_pending if fw.scheduler is not None else None
            ),
            "foreign_total": fw.foreign.total,
            "walks_injected": svc.walks_injected,
            **svc.ledger.dump(),
            "queue_depth": len(svc.queue),
        }

    def stats(self) -> dict:
        return {
            "interval_events": self.interval_events,
            "audits": self.audits,
            "violations": self.violations_found,
        }
