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
from typing import Iterable

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
    """Per-content marking: a stable fraction of names is always private.

    A name's :meth:`coin` depends on ``(salt, uri)`` only; ``fraction`` is
    the threshold, so one :meth:`coins` column serves every fraction swept.
    """

    uses_request_index = False

    def __init__(self, fraction: float, salt: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self.salt = salt

    def is_private(self, name: Name, request_index: int) -> bool:
        return self.is_private_uri(str(name))

    def is_private_uri(self, uri: str) -> bool:
        """The rule on ``str(name)``: the scalar definition :meth:`coins` must equal."""
        if self.fraction <= 0.0:
            return False
        if self.fraction >= 1.0:
            return True
        return self.coin(uri) < self.fraction

    def coin(self, uri: str) -> float:
        """The name's stable coin in [0, 1]: private iff below ``fraction``."""
        digest = hashlib.sha256(f"{self.salt}|{uri}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def coins(self, uris: Iterable[str]) -> np.ndarray:
        """:meth:`coin` of every URI as one ``float64`` column, bit for bit
        (uint64 -> float64 rounds to nearest-even as ``int / 2**64`` does)."""
        prefix = f"{self.salt}|"
        raw = bytearray()
        for uri in uris:
            raw += hashlib.sha256((prefix + uri).encode("utf-8")).digest()[:8]
        return np.frombuffer(raw, dtype=">u8").astype(np.float64) / 2**64


class RequestMarking(MarkingRule):
    """Per-request marking: each request flips an independent coin, drawn
    in request order — one per :meth:`is_private` or a block per :meth:`draw`."""

    uses_request_index = False
    uses_name = False

    def __init__(self, fraction: float, seed: int = 0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self._rng = np.random.default_rng(seed)

    def is_private(self, name: Name, request_index: int) -> bool:
        return bool(self._rng.random() < self.fraction)

    def draw(self, count: int) -> np.ndarray:
        """The next ``count`` flags at once: the same coins, and the same
        generator state afterwards, as ``count`` :meth:`is_private` calls."""
        return self._rng.random(count) < self.fraction


class NoMarking(MarkingRule):
    """Nothing is private (the No-Privacy baseline's world view)."""

    uses_request_index = False
    uses_name = False

    def is_private(self, name: Name, request_index: int) -> bool:
        return False
