"""Named event counters.

Forwarders, applications and the deployment daemon count what happens to
them (``interest_in``, ``cs_hit``, ``nack_out`` ...) through a
:class:`Monitor` rather than printing or mutating globals; experiments,
the invariant checker and the daemon's ``stats`` command read the totals.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict


class Monitor:
    """Collects named counters."""

    def __init__(self) -> None:
        #: The counters themselves (:attr:`counters` is a snapshot): a hot
        #: path binds this once and adds to it, ``live[name] += 1``.
        self.live: DefaultDict[str, int] = defaultdict(int)

    def count(self, name: str, increment: int = 1) -> None:
        """Increment the counter ``name``."""
        self.live[name] += increment

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented);
        reading adds no key to :attr:`counters`."""
        return self.live.get(name, 0)

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self.live)
