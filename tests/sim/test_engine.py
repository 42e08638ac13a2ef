"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.errors import ClockError, SimulationError


class TestScheduling:
    def test_initial_time_is_zero(self, engine):
        assert engine.now == 0.0

    def test_custom_start_time(self):
        assert Engine(start_time=42.5).now == 42.5

    def test_schedule_runs_callback_at_delay(self, engine):
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]

    def test_schedule_passes_args(self, engine):
        seen = []
        engine.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        engine.run()
        assert seen == [(1, "x")]

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(7.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7.0]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ClockError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, engine):
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(ClockError):
            engine.schedule_at(5.0, lambda: None)

    # A NaN time compares false against everything, so an accepted one
    # sits wherever the heap first put it and fires out of order.
    def test_schedule_rejects_nan_delay(self, engine):
        with pytest.raises(ClockError):
            engine.schedule(float("nan"), lambda: None)

    def test_schedule_at_rejects_nan_time(self, engine):
        with pytest.raises(ClockError):
            engine.schedule_at(float("nan"), lambda: None)

    def test_schedule_fire_and_forget_rejects_nan_delay(self, engine):
        with pytest.raises(ClockError):
            engine.schedule_fire_and_forget(float("nan"), lambda: None)

    def test_infinite_delay_is_accepted_and_fires_last(self, engine):
        order = []
        engine.schedule(float("inf"), order.append, "never")
        engine.schedule_at(float("inf"), order.append, "at")
        engine.schedule_fire_and_forget(1.0, order.append, "soon")
        engine.run()
        assert order == ["soon", "never", "at"]

    def test_zero_delay_runs_at_current_time(self, engine):
        seen = []
        engine.schedule(0.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.0]


class TestExecutionOrder:
    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, engine):
        order = []
        for tag in "abcde":
            engine.schedule(1.0, order.append, tag)
        engine.run()
        assert order == list("abcde")

    def test_callback_can_schedule_more_events(self, engine):
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, lambda: order.append("nested"))

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "nested"]
        assert engine.now == 2.0

    def test_nested_event_at_same_time_runs(self, engine):
        order = []
        engine.schedule(1.0, lambda: engine.schedule(0.0, order.append, "x"))
        engine.run()
        assert order == ["x"]


class TestRunControl:
    def test_run_until_stops_clock_at_horizon(self, engine):
        engine.schedule(10.0, lambda: None)
        stopped = engine.run(until=5.0)
        assert stopped == 5.0
        assert engine.now == 5.0

    def test_run_until_leaves_future_events_pending(self, engine):
        seen = []
        engine.schedule(10.0, lambda: seen.append("late"))
        engine.run(until=5.0)
        assert seen == []
        engine.run()
        assert seen == ["late"]

    def test_run_until_past_queue_advances_clock(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_max_events_limit(self, engine):
        seen = []
        for i in range(10):
            engine.schedule(float(i + 1), seen.append, i)
        engine.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_executes_single_event(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, "a")
        engine.schedule(2.0, seen.append, "b")
        assert engine.step() is True
        assert seen == ["a"]

    def test_step_on_empty_queue_returns_false(self, engine):
        assert engine.step() is False

    def test_engine_not_reentrant(self, engine):
        failure = []

        def reenter():
            try:
                engine.run()
            except SimulationError:
                failure.append(True)

        engine.schedule(1.0, reenter)
        engine.run()
        assert failure == [True]

    def test_events_processed_counter(self, engine):
        for i in range(5):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_run(self, engine):
        seen = []
        event = engine.schedule(1.0, seen.append, "x")
        event.cancel()
        engine.run()
        assert seen == []

    def test_cancel_between_events(self, engine):
        seen = []
        later = engine.schedule(5.0, seen.append, "late")
        engine.schedule(1.0, later.cancel)
        engine.run()
        assert seen == []

    def test_peek_skips_cancelled(self, engine):
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        assert engine.peek() == 2.0

    def test_peek_empty_queue(self, engine):
        assert engine.peek() is None

    def test_pending_count_excludes_cancelled(self, engine):
        e1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        e1.cancel()
        assert engine.pending_count == 1

    def test_pending_count_tracks_fires_and_cancels(self, engine):
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(4)]
        assert engine.pending_count == 4
        engine.step()
        assert engine.pending_count == 3
        events[1].cancel()
        events[1].cancel()  # idempotent: no double decrement
        assert engine.pending_count == 2
        engine.run()
        assert engine.pending_count == 0

    def test_pending_count_with_reschedule_from_callback(self, engine):
        def chain(depth: int):
            if depth:
                engine.schedule(1.0, chain, depth - 1)

        engine.schedule(1.0, chain, 3)
        assert engine.pending_count == 1
        engine.run()
        assert engine.pending_count == 0
