"""Cache-privacy scheme interface.

A *cache management* algorithm (CM in the paper's system model, Section IV)
decides how a router responds to interests that match cached content.  The
model's one asymmetry is built in here: **CM can hide cache hits but cannot
hide cache misses** — schemes are only ever consulted when the content *is*
in the cache.  A genuine miss is a genuine miss.

A scheme returns one of three decisions:

* ``HIT`` — serve from cache immediately (an *observable* cache hit),
* ``DELAYED_HIT(delay)`` — serve from cache after an artificial delay that
  makes the response look like a miss (Section V-B); bandwidth is preserved
  but, observationally and for utility accounting (Def. VI.1), this is a
  miss,
* ``MISS`` — ignore the cache entirely and re-fetch upstream (permitted by
  the system model: "CM is free to ignore its cache altogether").

Utility (Def. VI.1) counts only ``HIT`` decisions as hits, matching the
paper's evaluation where disguised responses are tallied as cache misses.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # avoid a runtime core->ndn import cycle
    from repro.ndn.cs import CacheEntry
    from repro.ndn.name import Name


class DecisionKind(enum.Enum):
    """How the router answers an interest matching cached content."""

    HIT = "hit"
    MISS = "miss"
    DELAYED_HIT = "delayed_hit"


@dataclass(frozen=True)
class Decision:
    """A scheme's verdict for one request, with the artificial delay if any."""

    kind: DecisionKind
    delay: float = 0.0

    @classmethod
    def hit(cls) -> "Decision":
        """Serve from cache now."""
        return cls(DecisionKind.HIT)

    @classmethod
    def miss(cls) -> "Decision":
        """Behave exactly like a cache miss (re-fetch upstream)."""
        return cls(DecisionKind.MISS)

    @classmethod
    def delayed(cls, delay: float) -> "Decision":
        """Serve from cache after ``delay`` ms, disguised as a miss."""
        if delay < 0:
            raise ValueError(f"artificial delay must be >= 0, got {delay}")
        return cls(DecisionKind.DELAYED_HIT, delay)

    @property
    def counts_as_hit(self) -> bool:
        """True iff the requester observes a cache hit (utility accounting)."""
        return self.kind is DecisionKind.HIT


#: Integer decision codes used by the fast-replay kernels.  They mirror
#: :class:`DecisionKind` but avoid constructing a :class:`Decision` object
#: per request on the hot path.
FAST_HIT = 0
FAST_DELAYED = 1
FAST_MISS = 2

#: DecisionKind -> fast integer code (for generic fallbacks).
FAST_CODE = {
    DecisionKind.HIT: FAST_HIT,
    DecisionKind.DELAYED_HIT: FAST_DELAYED,
    DecisionKind.MISS: FAST_MISS,
}


class SchemeKernel(abc.ABC):
    """Int-keyed counterpart of a :class:`CacheScheme` for fast replay.

    A kernel sees content as dense integer ids (the interned trace
    vocabulary of :mod:`repro.workload.compiled`) instead of
    :class:`~repro.ndn.cs.CacheEntry` objects.  It must make *exactly* the
    decisions its scheme makes on the reference path and leave the
    scheme's RNG where that path leaves it, so that ``fast_replay`` and the
    batch kernel stay bit-identical to ``replay()`` and the reference engine.

    The two loops consult it only for content it can hold state for:
    ``on_insert`` when content enters the cache *private*, ``decide_private``
    for each request whose *effective* privacy is True (a public request for
    cached content is a hit by the :meth:`CacheScheme.on_request` contract),
    ``on_evict`` when content whose ``tracked`` byte is set leaves the cache,
    and ``close`` once when the run ends, normally or by exception.  From its
    first call until ``close`` a kernel owns the scheme's generator
    exclusively (the batch compiler refuses one with a second holder): it
    may draw ahead in blocks, and ``close`` hands it back in the state the
    reference's scalar draws would have left.
    """

    tracked: Sequence[int]  #: one byte per content id, set while state is held

    def on_insert(self, content_id: int) -> None:
        """Privacy-marked content ``content_id`` entered the cache."""

    @abc.abstractmethod
    def decide_private(self, content_id: int) -> int:
        """Decision code (FAST_HIT/FAST_DELAYED/FAST_MISS) for a
        privacy-sensitive request matching cached ``content_id``."""

    def on_evict(self, content_id: int) -> None:
        """Tracked content ``content_id`` left the cache."""

    def close(self) -> None:
        """The run is over: hand back whatever was drawn ahead."""


class _ConstantKernel(SchemeKernel):
    """Kernel for stateless schemes that always answer the same decision."""

    __slots__ = ("_code", "tracked")

    def __init__(self, code: int, n_names: int) -> None:
        self._code = code
        self.tracked = bytes(n_names)  # holds state for nothing

    def decide_private(self, content_id: int) -> int:
        return self._code


class CacheScheme(abc.ABC):
    """Base class for all cache-privacy countermeasures.

    Subclasses implement :meth:`decide_private`; requests for non-private
    cached content are always served as plain hits (the paper's evaluation
    treats non-private content this way for every scheme).
    """

    #: Human-readable scheme name used in reports and bench output.
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs) -> None:
        """A kernel restates its class's four decision methods: a subclass
        overriding one without its own ``make_kernel`` gets no kernel."""
        super().__init_subclass__(**kwargs)
        methods = ("on_request", "decide_private", "on_insert", "on_evict")
        if "make_kernel" not in vars(cls) and any(m in vars(cls) for m in methods):
            cls.make_kernel = CacheScheme.make_kernel

    def on_request(self, entry: CacheEntry, private: bool, now: float) -> Decision:
        """Decide the response for a request matching cached ``entry``.

        ``private`` is the entry's *effective* privacy marking after the
        marking rules (producer bit, consumer bit, trigger rule) have been
        applied by the caller.
        """
        if not private:
            return Decision.hit()
        return self.decide_private(entry, now)

    @abc.abstractmethod
    def decide_private(self, entry: CacheEntry, now: float) -> Decision:
        """Decide the response for privacy-sensitive cached content."""

    # -- lifecycle hooks -------------------------------------------------
    def on_insert(self, entry: CacheEntry, private: bool, now: float) -> None:
        """Called when content enters the cache (initialize per-entry state)."""

    def on_evict(self, entry: CacheEntry) -> None:
        """Called when content leaves the cache (drop per-entry state)."""

    def reset(self) -> None:
        """Drop all scheme state (between experiment trials)."""

    def make_kernel(self, names: Sequence[Name]) -> Optional[SchemeKernel]:
        """Build an int-keyed fast-replay kernel, or None if unsupported.

        ``names`` is the interned trace vocabulary: ``names[content_id]``
        is the :class:`~repro.ndn.name.Name` for each dense content id
        (kernels that group correlated content need it once, up front).
        Returning None makes fast replay fall back to a per-entry shim
        that drives the ordinary :meth:`on_request` path.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
