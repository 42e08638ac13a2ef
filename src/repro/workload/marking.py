"""Random privacy marking of trace content (Section VII protocol).

The paper "randomly divide[s] requested content into private and
non-private" and sweeps the private fraction over {5, 10, 20, 40}%.  Two
implementations are provided:

* :class:`ContentMarking` — the division is per *content*: a name is
  private with probability p, decided once (stable hash), and every
  request for it carries the matching consumer bit.  This is the
  evaluation's configuration: private content is consistently requested
  privately, so the trigger rule never demotes it.
* :class:`RequestMarking` — the coin is flipped per *request*.  Under the
  trigger rule a single unmarked request demotes the content; the marking
  ablation measures how much utility this recovers (and what it costs).
"""

from __future__ import annotations

import abc
import hashlib

import numpy as np

from repro.ndn.name import Name


class MarkingRule(abc.ABC):
    """Decides whether a given request carries the consumer privacy bit."""

    #: True when :meth:`is_private` actually reads ``request_index``.
    #: Rules that ignore it (per-content and null marking) let the replay
    #: harness skip the per-request occurrence bookkeeping entirely.
    uses_request_index: bool = True

    #: True when :meth:`is_private` actually reads ``name``.  Name-blind
    #: rules (per-request coin flips, null marking) let streaming replay
    #: skip materializing the name table entirely — ``is_private`` may
    #: then legitimately receive ``None``.
    uses_name: bool = True

    @abc.abstractmethod
    def is_private(self, name: Name, request_index: int) -> bool:
        """True iff request number ``request_index`` for ``name`` is private."""


class ContentMarking(MarkingRule):
    """Per-content marking: a stable fraction of names is always private."""

    uses_request_index = False

    def __init__(self, fraction: float, salt: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self.salt = salt

    def is_private(self, name: Name, request_index: int) -> bool:
        return self.is_private_uri(str(name))

    def is_private_uri(self, uri: str) -> bool:
        """The same stable coin keyed directly on the URI string.

        ``str(name)`` IS the URI, so this is bit-identical to
        :meth:`is_private` — streaming replay uses it to mark a
        million-name table without constructing a single :class:`Name`.
        """
        if self.fraction <= 0.0:
            return False
        if self.fraction >= 1.0:
            return True
        digest = hashlib.sha256(f"{self.salt}|{uri}".encode("utf-8")).digest()
        value = int.from_bytes(digest[:8], "big") / 2**64
        return value < self.fraction


class RequestMarking(MarkingRule):
    """Per-request marking: each request flips an independent coin."""

    uses_request_index = False
    uses_name = False

    def __init__(self, fraction: float, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self._rng = np.random.default_rng(seed)

    def is_private(self, name: Name, request_index: int) -> bool:
        return bool(self._rng.random() < self.fraction)


class NoMarking(MarkingRule):
    """Nothing is private (the No-Privacy baseline's world view)."""

    uses_request_index = False
    uses_name = False

    def is_private(self, name: Name, request_index: int) -> bool:
        return False
