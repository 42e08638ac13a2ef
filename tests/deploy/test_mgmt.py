"""TCP management channel: command dispatch, error replies, hardening."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.deploy.daemon import DaemonConfig, ForwarderDaemon
from repro.deploy.mgmt import MAX_LINE, MgmtClient, MgmtError, MgmtServer
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


def test_stats_names_the_spec_the_daemon_runs():
    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            assert (await client.send_json("stats"))["scheme"] == "no-privacy"
            await client.send("scheme uniform")
            assert daemon.config.scheme == "uniform"
            assert (await client.send_json("stats"))["scheme"] == "uniform(K=8)"
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


@pytest.mark.parametrize("spaces, reply", [
    (MAX_LINE - len("health"), b"ok "),
    (MAX_LINE - len("health") + 1, b"error line-too-long\n"),
    (70_000 - len("drain\n"), b"error line-too-long\n"),
])
def test_overlong_lines_are_refused_whole(spaces, reply):
    """A line longer than MAX_LINE gets ``error line-too-long`` and is
    dropped through its newline: no tail of it runs, and the connection
    keeps serving.  The spaces go out first, so the server's buffer
    overflows before the newline arrives; the overlong lines end in
    ``drain``, which any tail of them would run."""

    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b" " * spaces)
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write((b"health" if spaces < MAX_LINE else b"drain") + b"\n")
            assert (await reader.readline()).startswith(reply)
            writer.write(b"ready\n")
            assert await reader.readline() == b"ok ready\n"
            assert not daemon.draining
            writer.close()
            await writer.wait_closed()
        finally:
            await teardown(daemon, server, client)

    asyncio.run(scenario())


#: One line per command ``_execute`` runs (``quit`` is the connection's).
COMMANDS = (
    "health", "ready", "stats", "faces", "alarms", "drain", "undrain",
    "add-route /shop FACE", "remove-route /shop FACE",
    "scheme uniform", "defense adaptive",
)


def _edit(data, line: str) -> str:
    """``line`` with one character inserted, deleted or replaced."""
    at = data.draw(st.integers(min_value=0, max_value=len(line)))
    char = data.draw(st.one_of(st.sampled_from(" /-0123456789\t"), st.characters()))
    kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    return line[:at] + ("" if kind == "delete" else char) + line[at + (kind != "insert"):]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_any_single_edit_of_a_command_is_ok_or_a_mgmt_error(command, data):
    """Every edited command line is answered ``ok …`` or
    ``error MgmtError: …``: no parse or daemon-side exception escapes
    ``_dispatch`` under its own type."""
    line = _edit(data, command)

    async def scenario():
        daemon, face, server, client = await mgmt_rig()
        try:
            return server._execute(line.replace("FACE", str(face.face_id)))
        finally:
            await teardown(daemon, server, client)

    reply = asyncio.run(scenario())
    assert reply.startswith(("ok ", "error MgmtError: ")), reply
