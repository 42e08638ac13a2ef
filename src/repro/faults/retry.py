"""Retransmission policy: exponential backoff, jitter, retry budget.

One policy object drives the codebase's one retransmission loop,
:meth:`repro.ndn.apps.consumer.Consumer.start_fetch` — which
:meth:`~repro.ndn.apps.consumer.Consumer.fetch`,
:meth:`repro.ndn.apps.interactive.InteractiveEndpoint.run_session` and the
live :meth:`repro.deploy.endpoints.AsyncConsumer.fetch` all ride — so
experiments state their recovery behavior in one place and tests can
assert on it.

Backoff jitter is sampled from an explicitly passed RNG stream (never
global state), keeping runs bit-reproducible from the root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.errors import FaultConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Budgeted retransmission with exponential backoff and jitter.

    Attempt ``i`` (0-based) waits ``timeout * backoff**i`` ms for content,
    scaled by a uniform ±``jitter`` fraction when an RNG is supplied.
    ``retries`` is the number of *re*-transmissions, so a fetch makes
    ``retries + 1`` attempts total.
    """

    retries: int = 3
    timeout: float = 200.0
    backoff: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        # Written as ``not x > y`` so that a NaN fails every guard.
        if self.retries < 0:
            raise FaultConfigError(f"retries must be >= 0, got {self.retries}")
        if not self.timeout > 0:
            raise FaultConfigError(f"timeout must be > 0, got {self.timeout}")
        if not self.backoff >= 1.0:
            raise FaultConfigError(f"backoff must be >= 1, got {self.backoff}")
        if not 0.0 <= self.jitter < 1.0:
            raise FaultConfigError(f"jitter must be in [0, 1), got {self.jitter}")

    @property
    def attempts(self) -> int:
        """Total transmissions allowed (first try + retries)."""
        return self.retries + 1

    def timeout_for(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """The wait budget (ms) for 0-based ``attempt``; a jittered
        attempt consumes exactly one draw from ``rng``."""
        if attempt < 0:
            raise FaultConfigError(f"attempt must be >= 0, got {attempt}")
        wait = self.timeout * self.backoff**attempt
        if self.jitter > 0.0 and rng is not None:
            wait *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return wait

    def total_budget(self) -> float:
        """Worst-case total wait (ms) across all attempts, sans jitter."""
        return sum(self.timeout_for(i) for i in range(self.attempts))
