"""Retransmission policy: exponential backoff, jitter, retry budget.

One policy object drives every retransmission loop in the codebase —
:meth:`repro.ndn.apps.consumer.Consumer.fetch` and
:meth:`repro.ndn.apps.interactive.InteractiveEndpoint.run_session` — so
experiments state their recovery behavior in one place and tests can
assert on it.

Backoff jitter is sampled from an explicitly passed RNG stream (never
global state), keeping runs bit-reproducible from the root seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.faults.errors import FaultConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Budgeted retransmission with exponential backoff and jitter.

    Attempt ``i`` (0-based) waits ``timeout * backoff**i`` ms for content,
    clamped at ``max_delay`` (and the legacy ``max_timeout``), and scaled
    by a uniform ±``jitter`` fraction when an RNG is supplied.  The cap is
    applied *after* jitter, so no attempt ever waits longer than the cap —
    without one, exponential growth exceeds any useful timeout within a
    handful of attempts.  ``retries`` is the number of *re*-transmissions,
    so a fetch makes ``retries + 1`` attempts total.

    ``deadline`` is an optional overall wall budget (ms) across the whole
    fetch: retry loops honoring it stop retrying once the total elapsed
    wait would exceed it, and deadline-propagating consumers clamp each
    interest's lifetime to the remaining budget.
    """

    retries: int = 3
    timeout: float = 200.0
    backoff: float = 2.0
    max_timeout: Optional[float] = None
    jitter: float = 0.0
    max_delay: Optional[float] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        # Written as ``not x > y`` so that a NaN fails every guard.
        if self.retries < 0:
            raise FaultConfigError(f"retries must be >= 0, got {self.retries}")
        if not self.timeout > 0:
            raise FaultConfigError(f"timeout must be > 0, got {self.timeout}")
        if not self.backoff >= 1.0:
            raise FaultConfigError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_timeout is not None and not self.max_timeout >= self.timeout:
            raise FaultConfigError(
                f"max_timeout {self.max_timeout} < base timeout {self.timeout}"
            )
        if self.max_delay is not None and not self.max_delay >= self.timeout:
            raise FaultConfigError(
                f"max_delay {self.max_delay} < base timeout {self.timeout}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise FaultConfigError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.deadline is not None and not self.deadline > 0:
            raise FaultConfigError(f"deadline must be > 0, got {self.deadline}")

    @property
    def attempts(self) -> int:
        """Total transmissions allowed (first try + retries)."""
        return self.retries + 1

    @cached_property
    def delay_cap(self) -> Optional[float]:
        """Effective per-attempt cap: min of ``max_delay``/``max_timeout``
        (computed once per policy: the fields are frozen)."""
        caps = [c for c in (self.max_delay, self.max_timeout) if c is not None]
        return min(caps) if caps else None

    def timeout_for(
        self, attempt: int, rng: Optional[np.random.Generator] = None
    ) -> float:
        """The wait budget (ms) for 0-based ``attempt``.

        Jitter is sampled before the cap is applied, so a capped attempt
        still consumes exactly one RNG draw (sequences stay aligned
        whether or not the cap engages) yet never exceeds the cap.
        """
        if attempt < 0:
            raise FaultConfigError(f"attempt must be >= 0, got {attempt}")
        wait = self.timeout * self.backoff**attempt
        if self.jitter > 0.0 and rng is not None:
            wait *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        cap = self.delay_cap
        if cap is not None:
            wait = min(wait, cap)
        return wait

    def total_budget(self) -> float:
        """Worst-case total wait (ms) across all attempts, sans jitter.

        When a ``deadline`` is set it bounds the total regardless of the
        per-attempt schedule.
        """
        total = sum(self.timeout_for(i) for i in range(self.attempts))
        if self.deadline is not None:
            total = min(total, self.deadline)
        return total
