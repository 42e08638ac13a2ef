"""Request traces: records, containers, and TSV round-trip.

A trace is an ordered sequence of :class:`Request` records — who asked for
what, when.  The synthetic IRCache-style generator produces these, the
replay harness consumes them, and the TSV format lets a real proxy trace
be dropped in (one line per request: ``time_ms  user_id  name``).

A :class:`Trace` is also a :class:`~repro.workload.streaming.Workload`:
its content keys are the append-time name pool's indices, so anything
written against the protocol (the interning pass, the packet-simulator
driver) takes a trace as it is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.ndn.name import Name


@dataclass(frozen=True, slots=True)
class Request:
    """One content request: timestamp (ms), requesting user, content name."""

    time: float
    user: int
    name: Name

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"request time must be >= 0, got {self.time}")
        if self.user < 0:
            raise ValueError(f"user id must be >= 0, got {self.user}")


class Trace:
    """An ordered request trace with summary statistics."""

    def __init__(self, requests: Iterable[Request] = ()) -> None:
        self._requests: List[Request] = []
        self._compiled = None
        # Append-time column interning: duplicate user ids and names
        # across requests share one object each, so a million-request
        # trace holds one int per distinct user and one Name per distinct
        # object instead of one per request.  A name's pool index is its
        # workload content key.
        self._user_pool: Dict[int, int] = {}
        self._name_pool: Dict[Name, int] = {}
        self._names: List[Name] = []
        for request in requests:
            self.append(request)

    def append(self, request: Request) -> None:
        """Add one request (caller maintains time ordering)."""
        user = self._user_pool.setdefault(request.user, request.user)
        key = self._name_pool.setdefault(request.name, len(self._names))
        if key == len(self._names):
            self._names.append(request.name)
        name = self._names[key]
        if user is not request.user:
            object.__setattr__(request, "user", user)
        if name is not request.name:
            object.__setattr__(request, "name", name)
        self._requests.append(request)
        self._compiled = None

    def sort(self) -> None:
        """Sort requests by (time, user) in place."""
        self._requests.sort(key=lambda r: (r.time, r.user))
        self._compiled = None

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, index: int) -> Request:
        return self._requests[index]

    def compile(self):
        """Intern the trace to dense int ids: ``compile_workload(self)``
        (see :mod:`.compiled`).

        The compiled form is cached on the trace; it is invalidated and
        rebuilt if requests have been appended (or the trace re-sorted)
        since the last compile.
        """
        from repro.workload.sharded import compile_workload

        if self._compiled is None:
            self._compiled = compile_workload(self)
        return self._compiled

    # ------------------------------------------------------------------
    # Workload protocol
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self._requests)

    @property
    def n_names(self) -> int:
        return len(self._names)

    @property
    def key_space(self) -> Optional[int]:
        return len(self._names)

    def uri_of(self, key: int) -> str:
        return str(self._names[key])

    def components_of(self, key: int) -> Tuple[str, ...]:
        return self._names[key].components

    def iter_blocks(self, chunk_size: Optional[int] = None):
        """The requests as request blocks, keys looked up in the name
        pool per block."""
        from repro.workload.streaming import DEFAULT_CHUNK, RequestBlock

        step = chunk_size if chunk_size is not None else DEFAULT_CHUNK
        if step < 1:
            raise ValueError(f"chunk_size must be >= 1, got {step}")
        pool = self._name_pool
        for lo in range(0, len(self._requests), step):
            block = self._requests[lo : lo + step]
            yield RequestBlock(
                times=np.array([r.time for r in block], dtype=np.float64),
                users=np.array([r.user for r in block], dtype=np.int64),
                keys=np.array([pool[r.name] for r in block], dtype=np.int64),
            )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def unique_objects(self) -> int:
        """Number of distinct content names requested."""
        return len(self._names)

    @property
    def unique_users(self) -> int:
        """Number of distinct requesting users."""
        return len({r.user for r in self._requests})

    @property
    def duration(self) -> float:
        """Span from first to last request (ms); 0 for empty traces."""
        if not self._requests:
            return 0.0
        return self._requests[-1].time - self._requests[0].time

    def popularity(self) -> Counter:
        """Request count per content name."""
        return Counter(r.name for r in self._requests)

    @property
    def max_hit_rate(self) -> float:
        """Hit rate of an unlimited, never-expiring cache: 1 − unique/total.

        The ceiling every scheme in Figure 5 is bounded by at the Inf point.
        """
        if not self._requests:
            return 0.0
        return 1.0 - self.unique_objects / len(self._requests)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as TSV: ``time_ms<TAB>user<TAB>name``."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for request in self._requests:
                handle.write(f"{request.time:.3f}\t{request.user}\t{request.name}\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a TSV trace written by :meth:`save` (or a real proxy log
        converted to the same three-column layout) through
        :class:`~repro.workload.streaming.TsvWorkload`, the one TSV parser."""
        from repro.workload.streaming import TsvWorkload, materialize

        return materialize(TsvWorkload(path))

    def head(self, count: int) -> "Trace":
        """A new trace containing only the first ``count`` requests."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return Trace(self._requests[:count])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Trace(requests={len(self)}, objects={self.unique_objects}, "
            f"users={self.unique_users})"
        )
