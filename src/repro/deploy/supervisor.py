"""Process supervision: graceful drain-then-close.

The :class:`Supervisor` owns one :class:`~repro.deploy.daemon.ForwarderDaemon`
plus its TCP management channel:

* **graceful shutdown** (SIGTERM or :meth:`shutdown`) runs the
  drain-then-close sequence: stop admitting interests (congestion Nacks
  via the daemon's drain gate), wait — bounded — for the PIT to empty,
  then close the management channel and every face;
* **overload degradation** is delegated by construction: the daemon's
  bounded PIT and token-bucket admission refuse load with Nacks, a
  face's handler errors are counted where they happen, and a flood's
  excess datagrams are dropped by the kernel, so the supervisor never
  needs to kill or restart a busy-but-healthy process.
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Optional

from repro.deploy.daemon import ForwarderDaemon
from repro.deploy.mgmt import MgmtServer

log = logging.getLogger("repro.deploy.supervisor")

#: Drain grace (engine/wall ms) before faces are closed anyway.
DRAIN_GRACE_MS = 2000.0


class Supervisor:
    """Runs a forwarder daemon and shuts it down cleanly."""

    def __init__(
        self,
        daemon: ForwarderDaemon,
        mgmt_host: str = "127.0.0.1",
        mgmt_port: int = 0,
    ) -> None:
        self.daemon = daemon
        self.mgmt = MgmtServer(daemon, host=mgmt_host, port=mgmt_port)
        self.mgmt_addr: Optional[tuple] = None
        self._started = False
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        self._signals_installed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, install_signal_handlers: bool = False) -> "Supervisor":
        """Start daemon + mgmt channel on the running loop."""
        loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await self.daemon.start()
        self.mgmt_addr = await self.mgmt.start()
        self._started = True
        if install_signal_handlers:
            # SIGTERM = drain-then-close; SIGINT behaves the same so ^C on
            # a foreground daemon is equally graceful.
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_shutdown)
            self._signals_installed = True
        return self

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (schedules the async sequence).

        The task is kept on the supervisor: the loop holds only a weak
        reference to it, and repeated requests schedule it once.
        """
        if self._shutdown_task is None and not self._stopping:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )

    async def shutdown(self) -> None:
        """Drain-then-close: refuse new work, let the PIT empty, close."""
        if self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        log.info("%s: draining", self.daemon.config.name)
        self.daemon.drain()
        if not await self.daemon.wait_pit_drained(DRAIN_GRACE_MS):
            log.warning(
                "%s: PIT not empty after %.0fms grace; closing anyway",
                self.daemon.config.name,
                DRAIN_GRACE_MS,
            )
        await self.mgmt.stop()
        await self.daemon.stop()
        if self._signals_installed:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(signum)
            self._signals_installed = False
        if self._stopped is not None:
            self._stopped.set()
        log.info("%s: stopped", self.daemon.config.name)

    async def wait_closed(self) -> None:
        """Block until a shutdown (signal or explicit) completes."""
        if self._stopped is not None:
            await self._stopped.wait()

    @property
    def running(self) -> bool:
        """Started and not stopping."""
        return self._started and not self._stopping

    def stats(self) -> dict:
        """Supervision counters for tests and the soak harness."""
        return {
            "running": self.running,
            "stopping": self._stopping,
            "mgmt_commands": self.mgmt.commands_served,
            "mgmt_errors": self.mgmt.command_errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Supervisor({self.daemon.config.name}, running={self.running})"
