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
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_does_not_affect_others(self):
        sim = Simulator()
        fired = []
        ev = sim.at(1.0, lambda: fired.append("x"))
        sim.at(2.0, lambda: fired.append("y"))
        sim.cancel(ev)
        sim.run()
        assert fired == ["y"]

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.cancel(ev)
        assert sim.pending_events == 1

    def test_cancelled_entry_neither_runs_nor_counts(self):
        sim = Simulator()
        fired = []
        dead = sim.at(1.0, fired.append, "dead")
        sim.at(2.0, fired.append, "live")
        sim.cancel(dead)
        assert sim._cancelled == {dead[2]}
        sim.run()
        assert fired == ["live"]
        assert sim.events_executed == 1
        # Popped, so its seq left the cancelled set.
        assert sim._cancelled == set()
        assert sim.pending_events == 0

    def test_cancel_twice_is_cancel_once(self):
        sim = Simulator()
        ev = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_executed == 1 and sim._cancelled == set()

    def test_cancelling_an_entry_that_ran_changes_nothing(self):
        sim = Simulator()
        fired = []
        ran = sim.at(1.0, fired.append, "ran")
        sim.at(2.0, fired.append, "later")
        sim.run(until=1.5)
        sim.cancel(ran)
        assert sim._cancelled == set()
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["ran", "later"]
        assert sim.events_executed == 2

    def test_cancel_from_inside_a_callback(self):
        """An entry cancels a later one at its own time; the handler that
        is running (already popped) may cancel itself harmlessly."""
        sim = Simulator()
        fired = []
        entries = {}

        def first():
            fired.append("first")
            sim.cancel(entries["second"])
            sim.cancel(entries["first"])

        entries["first"] = sim.at(1.0, first)
        entries["second"] = sim.at(1.0, fired.append, "second")
        sim.at(1.0, fired.append, "third")
        sim.run()
        assert fired == ["first", "third"]
        assert sim._cancelled == set()

    def test_cancelling_a_future_entry_skips_the_heap_scan(self):
        class NoScan(list):
            def __contains__(self, item):
                raise AssertionError("cancel scanned the heap")

        sim = Simulator()
        fired = []
        sim._queue = NoScan()
        sim.at(1.0, fired.append, 1.0)
        late = sim.at(2.0, fired.append, 2.0)
        sim.run(until=1.5)
        sim.cancel(late)
        sim.run()
        assert fired == [1.0] and sim._cancelled == set()

    def test_recancel_after_until_drops_it(self):
        """``run(until=...)`` drops a cancelled head past ``until``; the
        clock stays behind it, yet cancelling it again adds nothing."""
        sim = Simulator()
        fired = []
        late = sim.at(5.0, fired.append, 5.0)
        sim.cancel(late)
        sim.run(until=2.0)
        assert sim._queue == [] and sim.now == 2.0
        sim.cancel(late)
        assert sim._cancelled == set() and sim.pending_events == 0
        # An entry between the clock and the dropped one still cancels.
        mid = sim.at(3.0, fired.append, 3.0)
        keep = sim.at(4.0, fired.append, 4.0)
        sim.cancel(mid)
        assert sim._cancelled == {mid[2]}
        sim.run()
        assert fired == [4.0] and keep[0] == sim.now

    def test_recancel_after_step_drains_cancelled_queue(self):
        """``step`` pops cancelled entries until the queue is empty and
        fires nothing, so the clock never reaches them."""
        sim = Simulator()
        entries = [sim.at(t, lambda: None) for t in (1.0, 2.0)]
        for e in entries:
            sim.cancel(e)
        assert sim.step() is False
        assert sim.now == 0.0 and sim._queue == []
        for e in entries:
            sim.cancel(e)
        assert sim._cancelled == set() and sim.pending_events == 0
        new = sim.at(1.5, lambda: None)
        assert new[2] not in sim._cancelled
        sim.run()
        assert sim.events_executed == 1


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

    def test_until_fires_events_at_until(self):
        sim = Simulator()
        fired = []
        sim.at(2.0, fired.append, "at")
        sim.at(2.0 + 1e-12, fired.append, "after")
        sim.run(until=2.0)
        assert fired == ["at"] and sim.now == 2.0

    def test_until_leaves_cancelled_entries_unfired(self):
        sim = Simulator()
        fired = []
        early = sim.at(1.0, fired.append, 1.0)
        late = sim.at(5.0, fired.append, 5.0)
        sim.cancel(early)
        sim.cancel(late)
        sim.run(until=0.5)
        assert sim.now == 0.5 and fired == []
        sim.run(until=3.0)
        # Both cancelled entries are dropped, not fired, and the clock
        # stops at ``until``, short of the cancelled t=5 entry.
        assert sim.now == 3.0 and fired == []
        assert sim._queue == [] and sim._cancelled == set()
        sim.run()
        assert sim.now == 3.0 and fired == [] and sim.events_executed == 0

    def test_errors_leave_the_queue_usable(self):
        sim = Simulator()
        fired = []

        def rearm():
            fired.append(sim.now)
            sim.after(1.0, rearm)

        sim.at(0.0, rearm)
        with pytest.raises(SimulationError, match="max_events=3"):
            sim.run(max_events=3)
        assert fired == [0.0, 1.0, 2.0] and sim.events_executed == 3
        with pytest.raises(SimulationError, match="in the past"):
            sim.at(1.5, rearm)
        with pytest.raises(SimulationError, match="max_events=0"):
            sim.run(max_events=0)
        assert sim.pending_events == 1 and sim.events_executed == 3

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
    """The heap holds (time, priority, seq, fn, args) tuples: ordering is
    a tuple compare that never reaches the callback or its arguments."""

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
        sim.at(0.5, lambda: None)
        fn = [].append
        ev = sim.at(2.0, fn, "x", 7, priority=3)
        assert ev in sim._queue
        t, prio, seq, held, args = ev
        assert (t, prio, seq) == (2.0, 3, 1)
        assert held is fn and args == ("x", 7)

    def test_args_are_passed_through(self):
        sim = Simulator()
        got = []
        sim.at(1.0, lambda *a, **kw: got.append((a, kw)), 1, "two", (3,))
        sim.after(2.0, got.append, "after", priority=4)
        sim.at(0.5, got.clear)
        sim.run()
        assert got == [((1, "two", (3,)), {}), "after"]

    def test_events_are_never_compared(self):
        class Refuses:
            """A callback (and argument) that refuses every comparison."""

            def __init__(self, fired):
                self.fired = fired

            def __call__(self, arg):
                self.fired.append(arg.n)

            def __eq__(self, other):
                raise AssertionError("callback compared")

            __lt__ = __le__ = __gt__ = __ge__ = __ne__ = __eq__
            __hash__ = object.__hash__

        class Arg(Refuses):
            def __init__(self, n):
                self.n = n

        sim = Simulator()
        fired = []
        cb = Refuses(fired)
        entries = [
            sim.at(1.0 + (i % 3), cb, Arg(i), priority=i % 2) for i in range(50)
        ]
        sim.cancel(entries[7])
        sim.run()
        assert sorted(fired) == [i for i in range(50) if i != 7]

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        a = sim.at(1.0, fired.append, "a")
        sim.at(1.0, fired.append, "b")
        sim.at(2.0, fired.append, "c")
        sim.cancel(a)
        assert sim.step() is True
        assert fired == ["b"] and sim.now == 1.0
        assert sim.events_executed == 1
        assert sim._cancelled == set()

    def test_peek_drops_cancelled_heads(self):
        """``run`` drops cancelled heads without firing them or moving
        the clock to them."""
        sim = Simulator()
        first = sim.at(1.0, lambda: None)
        second = sim.at(1.0, lambda: None)
        live = sim.at(3.0, lambda: None)
        sim.cancel(first)
        sim.cancel(second)
        sim.run(until=2.0)
        assert sim._queue == [live]
        assert sim._cancelled == set()
        assert sim.now == 2.0 and sim.events_executed == 0
        sim.cancel(live)
        sim.run()
        assert sim._queue == [] and sim._cancelled == set()
        assert sim.now == 2.0 and sim.events_executed == 0

    def test_pending_events_counts_live_entries(self):
        sim = Simulator()
        evs = [sim.at(float(i % 4), lambda: None, priority=i % 3) for i in range(12)]
        for ev in evs[::3]:
            sim.cancel(ev)
        assert sim.pending_events == 8
        sim.run(until=1.5)
        # t=0 and t=1 entries ran (or were skipped); t=2 and t=3 remain.
        dead = set(evs[::3])
        assert sim.pending_events == sum(
            1 for ev in evs if ev not in dead and ev[0] > 1.5
        )
        assert sim.pending_events == sum(
            1 for e in sim._queue if e[2] not in sim._cancelled
        )
