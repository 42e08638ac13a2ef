"""Unit tests for generator-based simulation processes."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.errors import ProcessError
from repro.sim.events import Signal
from repro.sim.process import TIMED_OUT, Timeout, WaitSignal


class TestTimeout:
    def test_timeout_advances_simulated_time(self, engine):
        times = []

        def proc():
            times.append(engine.now)
            yield Timeout(10.0)
            times.append(engine.now)
            yield Timeout(5.0)
            times.append(engine.now)

        engine.spawn(proc())
        engine.run()
        assert times == [0.0, 10.0, 15.0]

    def test_zero_timeout_allowed(self, engine):
        steps = []

        def proc():
            yield Timeout(0.0)
            steps.append(engine.now)

        engine.spawn(proc())
        engine.run()
        assert steps == [0.0]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ProcessError):
            Timeout(-1.0)


class TestWaitSignal:
    def test_receives_payload(self, engine):
        sig = Signal("data")
        got = []

        def waiter():
            value = yield WaitSignal(sig)
            got.append(value)

        engine.spawn(waiter())
        engine.schedule(3.0, sig.trigger, "hello")
        engine.run()
        assert got == ["hello"]

    def test_timeout_returns_sentinel(self, engine):
        sig = Signal("never")
        got = []

        def waiter():
            value = yield WaitSignal(sig, timeout=5.0)
            got.append(value)
            got.append(engine.now)

        engine.spawn(waiter())
        engine.run()
        assert got == [TIMED_OUT, 5.0]

    def test_signal_beats_timeout(self, engine):
        sig = Signal("fast")
        got = []

        def waiter():
            value = yield WaitSignal(sig, timeout=10.0)
            got.append(value)

        engine.spawn(waiter())
        engine.schedule(1.0, sig.trigger, "won")
        engine.run()
        assert got == ["won"]
        # Timeout timer must not resume the process a second time.
        assert engine.now >= 1.0

    def test_late_trigger_after_timeout_ignored(self, engine):
        sig = Signal("late")
        got = []

        def waiter():
            value = yield WaitSignal(sig, timeout=2.0)
            got.append(value)

        engine.spawn(waiter())
        engine.schedule(5.0, sig.trigger, "too-late")
        engine.run()
        assert got == [TIMED_OUT]

    def test_stale_signal_does_not_resume_a_later_wait(self, engine):
        # ``a`` times out at 1 and fires at 2, during the wait on ``b``:
        # only ``b`` (never, before its own timeout at 11) may end it.
        a, b = Signal("a"), Signal("b")
        got = []

        def waiter():
            for signal, timeout in ((a, 1.0), (b, 10.0)):
                value = yield WaitSignal(signal, timeout=timeout)
                got.append((engine.now, value))

        engine.spawn(waiter())
        engine.schedule(2.0, a.trigger, "stale")
        engine.schedule(20.0, b.trigger, "late")
        engine.run()
        assert got == [(1.0, TIMED_OUT), (11.0, TIMED_OUT)]

    def test_timed_out_sentinel_is_falsy_singleton(self):
        from repro.sim.process import _TimedOut

        assert not TIMED_OUT
        assert _TimedOut() is TIMED_OUT
        assert repr(TIMED_OUT) == "TIMED_OUT"


class TestProcessLifecycle:
    def test_result_captured_on_return(self, engine):
        def proc():
            yield Timeout(1.0)
            return "finished"

        process = engine.spawn(proc())
        engine.run()
        assert process.finished
        assert process.result == "finished"

    def test_done_signal_fires_with_result(self, engine):
        def proc():
            yield Timeout(1.0)
            return 99

        process = engine.spawn(proc())
        got = []
        process.done_signal.add_waiter(got.append)
        engine.run()
        assert got == [99]

    def test_unknown_command_raises(self, engine):
        def proc():
            yield "not-a-command"

        with pytest.raises(ProcessError):
            engine.spawn(proc())

    def test_immediate_return_process(self, engine):
        def proc():
            return "instant"
            yield  # pragma: no cover - makes this a generator

        process = engine.spawn(proc())
        assert process.finished
        assert process.result == "instant"

    def test_two_processes_interleave(self, engine):
        order = []

        def a():
            yield Timeout(1.0)
            order.append("a1")
            yield Timeout(2.0)
            order.append("a2")

        def b():
            yield Timeout(2.0)
            order.append("b1")

        engine.spawn(a())
        engine.spawn(b())
        engine.run()
        assert order == ["a1", "b1", "a2"]

    def test_delegation_with_yield_from(self, engine):
        log = []

        def inner():
            yield Timeout(1.0)
            return "inner-value"

        def outer():
            value = yield from inner()
            log.append(value)

        engine.spawn(outer())
        engine.run()
        assert log == ["inner-value"]
