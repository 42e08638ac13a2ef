"""Streaming workloads: constant-memory request sources.

A :class:`Workload` is a re-iterable source of time-ordered requests that
never has to exist in RAM all at once: it yields fixed-size
:class:`RequestBlock` batches of numpy columns (times / users / content
keys) plus enough metadata — known-or-estimated ``n_requests`` and
``n_names``, a ``key -> name`` decoding — for consumers to size their
state up front.  The pattern follows icarus' scenario workloads
(lazily yielded Zipf/Poisson arrivals and trace readers) rather than
array-first generation.

Three types implement it:

* ``IrcacheGenerator.stream()`` (:mod:`repro.workload.ircache`) — the
  chunked synthetic proxy-trace generator (diurnal profile + session
  locality preserved, seed-reproducible independent of chunk size),
* :class:`TsvWorkload` — a streaming reader for the TSV trace format
  (one line per request, ``time_ms<TAB>user<TAB>name``),
* :class:`~repro.workload.compiled.CompiledTrace` (in RAM or sharded on
  disk) — keys are its content ids, so the reference replay runs on it.

A compiled trace is the one in-RAM trace; TSV is only its import and
export format.  :func:`~repro.workload.sharded.compile_workload` turns
any workload into one (``compile_workload(TsvWorkload(path))`` imports a
TSV), :func:`save_tsv` writes any workload out block by block, and
:func:`~repro.workload.sharded.compile_stream` lowers a workload to the
mmap-sharded compiled-trace format in one streaming pass.
:mod:`repro.sim.workload_driver` feeds the packet simulator from a
workload without a request list in between.  :class:`Request` records
exist only where :func:`iter_requests` builds them for the reference
``replay()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Protocol, Set, Tuple, Union,
    runtime_checkable,
)

import numpy as np

from repro.ndn.errors import NameError_
from repro.ndn.name import Name, uri_components

#: Default consumer-facing block size (requests per yielded RequestBlock).
DEFAULT_CHUNK = 65_536


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


@dataclass(frozen=True)
class RequestBlock:
    """One batch of consecutive requests as flat numpy columns.

    ``keys`` are workload-scoped integer content keys — stable across
    iterations of the same workload, decodable to URIs via
    :meth:`Workload.uris_of`.  Keys are
    non-negative, and dense unless the workload states a ``key_space``:
    the synthetic generator uses the global object rank (so the key space
    is the catalog even if a tail object is never requested), while
    trace readers intern keys densely in first-appearance order.
    """

    times: np.ndarray  #: float64, non-decreasing within and across blocks
    users: np.ndarray  #: int64 user ids
    keys: np.ndarray  #: int64 content keys

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.users) == len(self.keys)):
            raise ValueError(
                f"ragged RequestBlock: {len(self.times)} times, "
                f"{len(self.users)} users, {len(self.keys)} keys"
            )

    def __len__(self) -> int:
        return int(self.times.shape[0])


@runtime_checkable
class Workload(Protocol):
    """A re-iterable, time-ordered request source.

    ``n_requests`` and ``n_names`` are known-or-estimated totals (exact
    for generators and traces, estimates for one-pass readers);
    ``key_space`` is an exclusive upper bound on content keys when one is
    known, else ``None`` and keys are dense (consumers index arrays by key).
    ``uris_of(keys)`` is the URI of each key in order: one call per block.
    """

    @property
    def n_requests(self) -> int: ...

    @property
    def n_names(self) -> int: ...

    @property
    def key_space(self) -> Optional[int]: ...

    def uris_of(self, keys: np.ndarray) -> List[str]: ...

    def iter_blocks(
        self, chunk_size: Optional[int] = None
    ) -> Iterator[RequestBlock]: ...

    def __iter__(self) -> Iterator[Request]: ...


def rechunk(
    blocks: Iterable[RequestBlock], chunk_size: Optional[int]
) -> Iterator[RequestBlock]:
    """Re-slice a block stream to exactly ``chunk_size`` requests per block.

    The request sequence is unchanged — only the batching.  This is what
    makes workloads chunk-size-invariant: producers emit whatever internal
    block structure their sampling uses, consumers pick their own batch
    size, and the bytes in between are identical either way.
    """
    if chunk_size is None:
        yield from blocks
        return
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    pending: List[RequestBlock] = []
    pending_len = 0
    for block in blocks:
        if len(block) == 0:
            continue
        pending.append(block)
        pending_len += len(block)
        while pending_len >= chunk_size:
            take = chunk_size
            out_t: List[np.ndarray] = []
            out_u: List[np.ndarray] = []
            out_k: List[np.ndarray] = []
            while take > 0:
                head = pending[0]
                if len(head) <= take:
                    out_t.append(head.times)
                    out_u.append(head.users)
                    out_k.append(head.keys)
                    take -= len(head)
                    pending_len -= len(head)
                    pending.pop(0)
                else:
                    out_t.append(head.times[:take])
                    out_u.append(head.users[:take])
                    out_k.append(head.keys[:take])
                    pending[0] = RequestBlock(
                        times=head.times[take:],
                        users=head.users[take:],
                        keys=head.keys[take:],
                    )
                    pending_len -= take
                    take = 0
            yield RequestBlock(
                times=np.concatenate(out_t) if len(out_t) > 1 else out_t[0],
                users=np.concatenate(out_u) if len(out_u) > 1 else out_u[0],
                keys=np.concatenate(out_k) if len(out_k) > 1 else out_k[0],
            )
    if pending_len:
        yield RequestBlock(
            times=np.concatenate([b.times for b in pending]),
            users=np.concatenate([b.users for b in pending]),
            keys=np.concatenate([b.keys for b in pending]),
        )


def iter_requests(workload: "Workload") -> Iterator[Request]:
    """Yield :class:`Request` objects from any workload, lazily.

    Names are built per distinct key through a bounded-churn path
    (``Name(components)``; no global intern-pool growth), so iterating a
    million-user workload does not pin a million names in the process-
    wide pool.
    """
    names: Dict[int, Name] = {}
    for block in workload.iter_blocks():
        keys = block.keys.tolist()
        fresh = unseen_uris(workload, block.keys, names)
        names.update((key, Name(uri_components(uri))) for key, uri in fresh)
        for time, user, key in zip(block.times.tolist(), block.users.tolist(), keys):
            yield Request(time=time, user=user, name=names[key])


def unseen_uris(workload: "Workload", keys: np.ndarray, seen) -> Iterator[Tuple[int, str]]:
    """``(key, URI)`` per distinct key of ``keys`` not in ``seen``: one ``uris_of`` call."""
    fresh = [key for key in np.unique(keys).tolist() if key not in seen]
    return zip(fresh, workload.uris_of(np.array(fresh, dtype=np.int64)))


class TsvWorkload:
    """Streaming reader for the ``time<TAB>user<TAB>name`` trace format.

    Each iteration re-reads the file; content keys are interned densely
    in first-appearance order, which is deterministic for a fixed file,
    so keys are stable across passes.  ``n_requests`` / ``n_names`` start
    as caller-provided estimates (0 = unknown) and become exact after the
    first complete pass.

    Refuses a malformed line — a wrong field count, an unparsable number,
    a bad URI, a negative time or user — with its exception type and
    ``path:line``: the URI rule (:func:`~repro.ndn.name.uri_components`)
    is checked once per distinct URI, times and users ``>= 0`` once per
    block.  Blocks hold no :class:`Request`; only :meth:`__iter__` builds
    them.
    """

    def __init__(
        self,
        path: Union[str, Path],
        n_requests: int = 0,
        n_names: int = 0,
    ) -> None:
        self.path = Path(path)
        self._n_requests = int(n_requests)
        self._n_names = int(n_names)
        self._exact = False
        self._key_of: dict = {}
        self._uris: List[str] = []

    @property
    def n_requests(self) -> int:
        return self._n_requests

    @property
    def n_names(self) -> int:
        return max(self._n_names, len(self._uris))

    @property
    def key_space(self) -> Optional[int]:
        # Keys are dense-in-appearance; the space is only bounded once a
        # full pass has fixed the vocabulary.
        return len(self._uris) if self._exact else None

    def uris_of(self, keys: np.ndarray) -> List[str]:
        return list(map(self._uris.__getitem__, keys.tolist()))

    def _block(
        self, times: List[float], users: List[int], keys: List[int], lines: List[int]
    ) -> RequestBlock:
        """The parsed lines as a block, refused where a :class:`Request`
        of one of them would be."""
        block = RequestBlock(
            times=np.asarray(times, dtype=np.float64),
            users=np.asarray(users, dtype=np.int64),
            keys=np.asarray(keys, dtype=np.int64),
        )
        bad = np.flatnonzero((block.times < 0) | (block.users < 0))
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"{self.path}:{lines[i]}: request time and user id must be "
                f">= 0, got {times[i]} and {users[i]}"
            )
        return block

    def iter_blocks(
        self, chunk_size: Optional[int] = None
    ) -> Iterator[RequestBlock]:
        step = chunk_size if chunk_size is not None else DEFAULT_CHUNK
        if step < 1:
            raise ValueError(f"chunk_size must be >= 1, got {step}")
        key_of = self._key_of
        uris = self._uris
        times: List[float] = []
        users: List[int] = []
        keys: List[int] = []
        lines: List[int] = []
        total = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                try:
                    if len(parts) != 3:
                        raise ValueError(
                            f"expected 3 tab-separated fields, got {len(parts)}"
                        )
                    time_str, user_str, uri = parts
                    time, user = float(time_str), int(user_str)
                    key = key_of.get(uri)
                    if key is None:
                        uri_components(uri)
                        key = key_of[uri] = len(uris)
                        uris.append(uri)
                except (ValueError, NameError_) as error:
                    self._block(times, users, keys, lines)  # earlier lines first
                    raise type(error)(f"{self.path}:{line_number}: {error}") from None
                times.append(time)
                users.append(user)
                keys.append(key)
                lines.append(line_number)
                total += 1
                if len(times) >= step:
                    yield self._block(times, users, keys, lines)
                    times, users, keys, lines = [], [], [], []
        if times:
            yield self._block(times, users, keys, lines)
        self._n_requests = total
        self._n_names = len(uris)
        self._exact = True

    def __iter__(self) -> Iterator[Request]:
        return iter_requests(self)


def save_tsv(workload: "Workload", path: Union[str, Path]) -> Tuple[int, int, int]:
    """Write ``workload`` as TSV (``time_ms<TAB>user<TAB>name``, times to
    three decimals), one block at a time: besides the block, only the URI
    of each key seen so far is held, so memory grows with the distinct
    names, not with the requests.

    Returns ``(requests, distinct names, distinct users)`` written;
    :class:`TsvWorkload` reads the file back.
    """
    uris: Dict[int, str] = {}
    users_seen: Set[int] = set()
    written = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for block in workload.iter_blocks():
            uris.update(unseen_uris(workload, block.keys, uris))
            users = block.users.tolist()
            users_seen.update(users)
            handle.writelines(
                f"{time:.3f}\t{user}\t{uris[key]}\n"
                for time, user, key in zip(block.times.tolist(), users, block.keys.tolist())
            )
            written += len(users)
    return written, len(uris), len(users_seen)
