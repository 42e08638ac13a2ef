"""TCP management channel: command dispatch, error replies, hardening."""

from __future__ import annotations

import asyncio

import pytest

from repro.deploy.daemon import DaemonConfig, ForwarderDaemon
from repro.deploy.mgmt import MgmtClient, MgmtError, MgmtServer
from repro.ndn.name import Name


async def mgmt_rig():
    daemon = ForwarderDaemon(DaemonConfig(name="m"))
    await daemon.start()
    face = await daemon.add_udp_face(label="m:f0")
    server = MgmtServer(daemon)
    host, port = await server.start()
    client = await MgmtClient(host, port).connect()
    return daemon, face, server, client


async def teardown(daemon, server, client):
    await client.close()
    await server.stop()
    await daemon.stop()


def test_health_ready_stats_faces():
    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            health = await client.send_json("health")
            assert health["up"] and health["ready"]
            assert await client.send("ready") == "ready"
            stats = await client.send_json("stats")
            assert stats["name"] == "m"
            faces = await client.send_json("faces")
            assert str(face.face_id) in faces
        finally:
            await teardown(daemon, server, client)

    asyncio.run(scenario())


def test_route_and_scheme_commands():
    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            reply = await client.send(f"add-route /shop {face.face_id}")
            assert "route" in reply
            assert daemon.forwarder.fib.longest_prefix_match(
                Name.parse("/shop/x")
            )
            await client.send(f"remove-route /shop {face.face_id}")
            assert not daemon.forwarder.fib.longest_prefix_match(
                Name.parse("/shop/x")
            )
            reply = await client.send("scheme uniform")
            assert reply == "scheme uniform(K=8)"
            assert daemon.forwarder.scheme.name == "uniform-random-cache"
        finally:
            await teardown(daemon, server, client)

    asyncio.run(scenario())


def test_drain_undrain_flow():
    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            await client.send("drain")
            assert daemon.draining
            with pytest.raises(MgmtError):
                await client.send("ready")
            await client.send("undrain")
            assert not daemon.draining
            assert await client.send("ready") == "ready"
        finally:
            await teardown(daemon, server, client)

    asyncio.run(scenario())


def test_errors_are_replies_not_disconnects():
    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            for bad in (
                "no-such-command",
                "add-route",                # missing args
                "add-route /x notanint",
                "scheme bogus",
                "add-route /x 424242",      # unknown face
            ):
                with pytest.raises(MgmtError):
                    await client.send(bad)
            # The connection survives every error and still serves.
            assert await client.send("ready") == "ready"
            assert server.command_errors >= 5
        finally:
            await teardown(daemon, server, client)

    asyncio.run(scenario())


def test_raw_garbage_lines_get_error_replies():
    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"\xff\xfe binary junk\n")
            reply = await reader.readline()
            assert reply.startswith(b"error")
            writer.write(b"quit\n")
            assert (await reader.readline()).startswith(b"ok bye")
            writer.close()
            await writer.wait_closed()
        finally:
            await teardown(daemon, server, client)

    asyncio.run(scenario())
