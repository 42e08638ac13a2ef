"""Supervisor: graceful shutdown, signal-safe shutdown trigger, stats."""

from __future__ import annotations

import asyncio

from repro.deploy.daemon import DaemonConfig, ForwarderDaemon
from repro.deploy.mgmt import MgmtClient
from repro.deploy.supervisor import Supervisor


def test_shutdown_drains_then_closes_everything():
    async def scenario():
        daemon = ForwarderDaemon(DaemonConfig(name="sup"))
        supervisor = Supervisor(daemon)
        await supervisor.start()
        face = await daemon.add_udp_face(label="sup:f0")
        host, port = supervisor.mgmt_addr
        client = await MgmtClient(host, port).connect()
        assert await client.send("ready") == "ready"
        await client.close()

        await supervisor.shutdown()
        assert not supervisor.running
        assert daemon.draining
        assert face.closed
        # Mgmt channel is gone.
        try:
            await MgmtClient(host, port).connect()
            mgmt_down = False
        except (ConnectionError, OSError):
            mgmt_down = True
        assert mgmt_down
        # Second shutdown is a no-op, not an error.
        await supervisor.shutdown()
        await supervisor.wait_closed()

    asyncio.run(scenario())


def test_repeated_shutdown_requests_schedule_one_shutdown():
    async def scenario():
        daemon = ForwarderDaemon(DaemonConfig(name="sup"))
        supervisor = Supervisor(daemon)
        await supervisor.start()
        faces = [await daemon.add_udp_face(label=f"sup:f{i}") for i in range(2)]
        before = asyncio.all_tasks()
        # Two signals in one tick, as a double ^C delivers them.
        supervisor.request_shutdown()
        supervisor.request_shutdown()
        assert len(asyncio.all_tasks() - before) == 1
        await asyncio.wait_for(supervisor.wait_closed(), timeout=5.0)
        assert not supervisor.running
        assert all(face.closed for face in faces)

    asyncio.run(scenario())


def test_stats_snapshot():
    async def scenario():
        daemon = ForwarderDaemon(DaemonConfig(name="sup"))
        supervisor = Supervisor(daemon)
        await supervisor.start()
        try:
            stats = supervisor.stats()
            assert stats["running"] and not stats["stopping"]
            assert stats["mgmt_commands"] == stats["mgmt_errors"] == 0
        finally:
            await supervisor.shutdown()
        assert not supervisor.stats()["running"]

    asyncio.run(scenario())
