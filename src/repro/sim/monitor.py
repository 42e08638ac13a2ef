"""Named event counters.

Forwarders, applications and the deployment daemon count what happens to
them (``interest_in``, ``cs_hit``, ``nack_out`` ...) through a
:class:`Monitor` rather than printing or mutating globals; experiments,
the invariant checker and the daemon's ``stats`` command read the totals.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict


class Monitor:
    """Collects named counters."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)

    def count(self, name: str, increment: int = 1) -> None:
        """Increment the counter ``name``."""
        self._counters[name] += increment

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented);
        reading adds no key to :attr:`counters`."""
        return self._counters.get(name, 0)

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counters)
