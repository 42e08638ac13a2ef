"""RealTimeEngine: the sim scheduling contract over an asyncio loop."""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.deploy.clock import RealTimeEngine
from repro.sim.errors import ClockError


def test_now_advances_with_wall_clock():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        t0 = engine.now
        await asyncio.sleep(0.02)
        t1 = engine.now
        assert t1 - t0 >= 15.0  # ms, generous lower bound for slow CI

    asyncio.run(scenario())


def test_schedule_fires_with_args():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        fired = []
        engine.schedule(5.0, fired.append, "a")
        engine.schedule_fire_and_forget(5.0, fired.append, "b")
        await asyncio.sleep(0.05)
        assert sorted(fired) == ["a", "b"]
        assert engine.events_processed == 2
        assert engine.pending_count == 0

    asyncio.run(scenario())


def test_cancel_prevents_firing():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        fired = []
        event = engine.schedule(5.0, fired.append, "x")
        event.cancel()
        await asyncio.sleep(0.03)
        assert fired == []
        assert engine.pending_count == 0
        assert engine.events_processed == 0

    asyncio.run(scenario())


def _garbage_after(timers: int) -> int:
    """What ``gc.collect()`` finds after one loop, run with the collector
    off, that fires ``timers`` timers and cancels as many more."""

    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        fired = []
        for _ in range(timers):
            engine.schedule(0.0, fired.append, None)
            engine.schedule(60_000.0, fired.append, None).cancel()
        while engine.pending_count:
            await asyncio.sleep(0)
        assert len(fired) == engine.events_processed == timers

    gc.collect()
    gc.disable()
    try:
        asyncio.run(scenario())
        return gc.collect()
    finally:
        gc.enable()


def test_fired_and_cancelled_timers_leave_no_reference_cycle():
    """A fired or cancelled timer is freed by reference counting alone:
    neither leaves its event, partial and asyncio handle in a cycle."""
    assert _garbage_after(1_000) <= _garbage_after(0)


def test_schedule_at_absolute_time():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        fired = []
        engine.schedule_at(engine.now + 5.0, fired.append, 1)
        await asyncio.sleep(0.03)
        assert fired == [1]
        with pytest.raises(ClockError):
            engine.schedule_at(engine.now - 50.0, fired.append, 2)

    asyncio.run(scenario())


def test_negative_delay_rejected():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        with pytest.raises(ClockError):
            engine.schedule(-1.0, lambda: None)
        with pytest.raises(ClockError):
            engine.schedule_fire_and_forget(-1.0, lambda: None)

    asyncio.run(scenario())


def test_sim_only_features_raise():
    async def scenario():
        engine = RealTimeEngine(asyncio.get_running_loop())
        with pytest.raises(ClockError):
            engine.spawn(iter(()))
        with pytest.raises(ClockError):
            engine.run()

    asyncio.run(scenario())
