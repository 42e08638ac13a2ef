"""RealTimeEngine: the sim scheduling contract over an asyncio loop."""

from __future__ import annotations

import asyncio

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
