"""Line-based TCP management channel for the forwarder daemon.

Follows the PiCN pattern (UDP data plane + TCP management socket): each
connection sends newline-terminated commands and receives one
newline-terminated reply per command.  Replies start with ``ok`` or
``error``; commands returning structured state (``stats``, ``health``)
answer ``ok <json>``.

Commands::

    health                         liveness snapshot (json)
    ready                          "ok ready" / "error not-ready" (probe)
    stats                          counter snapshot (json)
    faces                          face table (json)
    add-route <prefix> <face-id>   install a FIB route
    remove-route <prefix> <face-id>
    scheme <name>                  swap privacy scheme (flushes the CS);
                                   replies with its spec, e.g. uniform(K=8)
    defense <preset>               swap defense preset (off/static/monitor/
                                   adaptive) on the live forwarder
    alarms                         defense alarm/mitigation snapshot (json)
    drain                          stop admitting new interests
    undrain                        resume admission
    quit                           close this connection

The channel is intentionally plain text so ``nc localhost <port>`` works
as a debugging console, exactly like PiCN's management socket.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Optional, Tuple

from repro.deploy.daemon import ForwarderDaemon

log = logging.getLogger("repro.deploy.mgmt")

#: Refuse absurd command lines (a mgmt-port flood must not grow memory).
MAX_LINE = 4096


class MgmtError(RuntimeError):
    """A management command failed (bad syntax or daemon-side error)."""


class MgmtServer:
    """TCP command server bound to one daemon."""

    def __init__(
        self,
        daemon: ForwarderDaemon,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.daemon = daemon
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self.commands_served = 0
        self.command_errors = 0

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if len(line) > MAX_LINE:
                    writer.write(b"error line-too-long\n")
                    await writer.drain()
                    continue
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                if text == "quit":
                    writer.write(b"ok bye\n")
                    await writer.drain()
                    break
                reply = self._execute(text)
                writer.write(reply.encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    def _execute(self, line: str) -> str:
        """Run one command line; never raises (errors become replies)."""
        self.commands_served += 1
        try:
            return self._dispatch(line)
        except Exception as exc:
            self.command_errors += 1
            return f"error {type(exc).__name__}: {exc}"

    def _dispatch(self, line: str) -> str:
        parts = line.split()
        command, args = parts[0], parts[1:]
        daemon = self.daemon

        if command == "health":
            return "ok " + json.dumps(daemon.health(), sort_keys=True)
        if command == "ready":
            return "ok ready" if daemon.ready else "error not-ready"
        if command == "stats":
            return "ok " + json.dumps(daemon.stats(), sort_keys=True, default=str)
        if command == "faces":
            faces = {fid: f.stats() for fid, f in daemon.faces.items()}
            return "ok " + json.dumps(faces, sort_keys=True)
        if command == "add-route":
            if len(args) != 2:
                raise MgmtError("usage: add-route <prefix> <face-id>")
            daemon.add_route(args[0], int(args[1]))
            return f"ok route {args[0]} -> face {args[1]}"
        if command == "remove-route":
            if len(args) != 2:
                raise MgmtError("usage: remove-route <prefix> <face-id>")
            daemon.remove_route(args[0], int(args[1]))
            return f"ok removed {args[0]} -> face {args[1]}"
        if command == "scheme":
            if len(args) != 1:
                raise MgmtError("usage: scheme <name>")
            return f"ok scheme {daemon.set_scheme(args[0])}"
        if command == "defense":
            if len(args) != 1:
                raise MgmtError("usage: defense <preset>")
            agent = daemon.set_defense(args[0])
            state = "armed" if agent is not None else "detached"
            return f"ok defense {args[0]} ({state})"
        if command == "alarms":
            return "ok " + json.dumps(daemon.defense_status(), sort_keys=True)
        if command == "drain":
            daemon.drain()
            return "ok draining"
        if command == "undrain":
            daemon.undrain()
            return "ok admitting"
        raise MgmtError(f"unknown command {command!r}")


class MgmtClient:
    """Async client for the management channel (tests, CLI, scripts)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "MgmtClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def send(self, command: str) -> str:
        """Send one command; returns the reply payload after ``ok``.

        Raises :class:`MgmtError` on an ``error`` reply.
        """
        if self._writer is None or self._reader is None:
            raise MgmtError("client not connected")
        self._writer.write(command.encode("utf-8") + b"\n")
        await self._writer.drain()
        raw = await self._reader.readline()
        if not raw:
            raise MgmtError("connection closed by daemon")
        reply = raw.decode("utf-8").strip()
        if reply.startswith("ok"):
            return reply[3:] if len(reply) > 3 else ""
        raise MgmtError(reply)

    async def send_json(self, command: str) -> dict:
        """Send a command whose reply payload is JSON; returns the object."""
        return json.loads(await self.send(command))
