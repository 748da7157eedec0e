"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.common import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(2.0, lambda: order.append("b"))
        sim.at(1.0, lambda: order.append("a"))
        sim.at(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: order.append("low"), priority=1)
        sim.at(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_rejects_past_event(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        ev = sim.at(1.0, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_does_not_affect_others(self):
        sim = Simulator()
        fired = []
        ev = sim.at(1.0, lambda: fired.append("x"))
        sim.at(2.0, lambda: fired.append("y"))
        ev.cancel()
        sim.run()
        assert fired == ["y"]

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        ev.cancel()
        assert sim.pending_events == 1


class TestRunControl:
    def test_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_until_in_the_past_rejected(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1.0))
        sim.run()
        sim.at(5.0, lambda: fired.append(5.0))
        with pytest.raises(SimulationError):
            sim.run(until=0.5)
        assert sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.at(0.7, lambda: fired.append(0.7))
        sim.run()
        assert fired == [1.0, 5.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.after(0.001, rearm)

        sim.at(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.at(float(i), lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as e:
                errors.append(e)

        sim.at(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestCascades:
    def test_event_scheduling_chain(self):
        """Events scheduled from within events run in causal order."""
        sim = Simulator()
        times = []

        def step(n):
            times.append(sim.now)
            if n:
                sim.after(1.0, lambda: step(n - 1))

        sim.at(0.0, lambda: step(4))
        sim.run()
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestHeapEntries:
    """The heap holds (time, priority, seq, event) tuples: ordering is a
    tuple compare that never reaches the event itself."""

    def test_equal_time_orders_by_priority_then_seq(self):
        sim = Simulator()
        order = []
        prios = [2, 0, 1, 0, 2, 1, 0]
        for i, p in enumerate(prios):
            sim.at(1.0, lambda i=i: order.append(i), priority=p)
        sim.at(0.5, lambda: order.append("early"), priority=9)
        sim.run()
        want = sorted(range(len(prios)), key=lambda i: (prios[i], i))
        assert order == ["early", *want]

    def test_entries_carry_the_event_keys(self):
        sim = Simulator()
        ev = sim.at(2.0, lambda: None, priority=3)
        ((t, prio, seq, held),) = sim._queue
        assert held is ev
        assert (t, prio, seq) == (ev.time, ev.priority, ev.seq)

    def test_events_are_never_compared(self, monkeypatch):
        from repro.sim.engine import Event

        def refuse(self, other):
            raise AssertionError("Event compared")

        monkeypatch.setattr(Event, "__lt__", refuse, raising=False)
        sim = Simulator()
        fired = []
        for i in range(50):
            sim.at(1.0 + (i % 3), lambda i=i: fired.append(i), priority=i % 2)
        sim.run()
        assert len(fired) == 50

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        a = sim.at(1.0, lambda: fired.append("a"))
        sim.at(1.0, lambda: fired.append("b"))
        sim.at(2.0, lambda: fired.append("c"))
        a.cancel()
        assert sim.step() is True
        assert fired == ["b"] and sim.now == 1.0
        assert sim.events_executed == 1

    def test_peek_drops_cancelled_heads(self):
        sim = Simulator()
        first = sim.at(1.0, lambda: None)
        second = sim.at(1.0, lambda: None)
        live = sim.at(3.0, lambda: None)
        first.cancel()
        second.cancel()
        assert sim._peek() is live
        assert len(sim._queue) == 1
        live.cancel()
        assert sim._peek() is None
        assert sim._queue == []

    def test_pending_events_counts_live_entries(self):
        sim = Simulator()
        evs = [sim.at(float(i % 4), lambda: None, priority=i % 3) for i in range(12)]
        for ev in evs[::3]:
            ev.cancel()
        assert sim.pending_events == 8
        sim.run(until=1.5)
        # t=0 and t=1 entries ran (or were skipped); t=2 and t=3 remain.
        assert sim.pending_events == sum(
            1 for ev in evs if not ev.cancelled and ev.time > 1.5
        )
