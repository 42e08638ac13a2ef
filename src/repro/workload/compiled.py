"""Compiled traces: a name table plus an ordered sequence of column shards.

A :class:`CompiledTrace` is the in-RAM trace: every distinct name is
interned to a dense ``int32`` content id **once**, and the replay kernel
(:mod:`repro.workload.fast_replay`) and the sweep runner
(:mod:`repro.perf.parallel`) work on flat columns, cut into
:class:`TraceShard`\\ s:

* ``ids[i]``   — content id of request ``i`` (dense, 0..n_names-1, in
  first-appearance order),
* ``times[i]`` — request timestamp in ms,
* ``users[i]`` — requesting user id,
* ``occurrence[i]`` — how many earlier requests asked for the same id
  (the ``request_index`` the reference replay hands a marking rule),
* ``first_occurrence[i]`` — ``occurrence[i] == 0`` (the compulsory-miss
  positions; their count is the unique-object count).

There is one such type, and one interning pass that builds it
(:func:`~repro.workload.sharded._intern_pass`).
:func:`~repro.workload.sharded.compile_workload` collects that pass into a
single shard held in RAM, from any workload — the synthetic generator's
stream (``IrcacheGenerator.generate()``) or a TSV file
(``compile_workload(TsvWorkload(path))``) — and hands a trace that is
already compiled back unchanged, so S schemes × C cache sizes pay the
interning once; :class:`~repro.workload.sharded.ShardedCompiledTrace` is
the same thing with its shards memory-mapped from files.  TSV is only the
import and export format (:func:`~repro.workload.streaming.save_tsv`).

A compiled trace is itself a :class:`~repro.workload.streaming.Workload`
(keys are its content ids), so the reference ``replay()`` runs on it
directly: that is how a scheme without a fast kernel replays any input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.ndn.name import Name
from repro.workload.marking import ContentMarking, MarkingRule
from repro.workload.streaming import Request, RequestBlock, iter_requests, rechunk

#: :class:`TraceShard` column -> dtype.
COLUMNS = (
    ("ids", np.int32),
    ("times", np.float64),
    ("users", np.int32),
    ("occurrence", np.int32),
    ("first_occurrence", np.bool_),
)


@dataclass(frozen=True)
class TraceShard:
    """One contiguous slice of a compiled trace's columns."""

    index: int
    start: int
    ids: np.ndarray
    times: np.ndarray
    users: np.ndarray
    occurrence: np.ndarray
    first_occurrence: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def release(self) -> None:
        """Drop this shard's pages (``madvise(MADV_DONTNEED)``).

        Called by streaming consumers after a shard is replayed so peak
        RSS stays bounded by one resident shard.  A no-op for columns
        that are not memory-mapped.  Best-effort: platforms without
        madvise simply rely on the VM to reclaim cold pages.
        """
        import mmap as _mmap

        advice = getattr(_mmap, "MADV_DONTNEED", None)
        if advice is None:  # pragma: no cover - platform fallback
            return
        for column, _ in COLUMNS:
            source = getattr(getattr(self, column), "_mmap", None)
            if source is not None:
                try:
                    source.madvise(advice)
                except (ValueError, OSError):  # pragma: no cover
                    pass


def _whole_column(column: str, doc: str) -> property:
    return property(lambda self: getattr(self._whole(), column), doc=doc)


class CompiledTrace:
    """A trace interned to dense integer content ids (replay fast path).

    Immutable, so :meth:`content_coins`, :meth:`lru_columns` and
    :meth:`grid_flags` memoize with nothing to invalidate.
    """

    def __init__(
        self, names: Sequence[Name], shards: Sequence[TraceShard] = ()
    ) -> None:
        #: ``names[content_id]`` -> the interned :class:`Name`.
        self.names = names
        self._shards = tuple(shards)
        #: (salt, coin column) of the last salt asked for: 8 B x n_names.
        self._coins: Optional[Tuple[str, np.ndarray]] = None
        #: (ids, occurrence order, stack distance in that order):
        #: 12 B x n_requests, once.
        self._lru: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: ((salt, fraction), flags in occurrence order) of the last
        #: ContentMarking asked for: 1 B x n_requests.
        self._flags: Optional[Tuple[Tuple[str, float], np.ndarray]] = None

    @property
    def n_requests(self) -> int:
        """Number of requests in the trace."""
        return sum(len(shard) for shard in self._shards)

    @property
    def n_names(self) -> int:
        """Number of distinct content names (the interned vocabulary size)."""
        return len(self.names)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def max_hit_rate(self) -> float:
        """1 − unique/total: the unlimited-cache hit-rate ceiling."""
        if not self.n_requests:
            return 0.0
        return 1.0 - self.n_names / self.n_requests

    def iter_shards(self) -> Iterator[TraceShard]:
        """Yield the shards in trace order."""
        return iter(self._shards)

    # -- Workload protocol: keys are the content ids -----------------------
    @property
    def key_space(self) -> int:
        return self.n_names

    def uri_of(self, key: int) -> str:
        return str(self.names[key])

    def components_of(self, key: int) -> Tuple[str, ...]:
        return self.names[key].components

    def iter_blocks(self, chunk_size: Optional[int] = None) -> Iterator[RequestBlock]:
        """The shards as request blocks (one per shard unless re-cut)."""
        return rechunk((
            RequestBlock(
                times=np.asarray(shard.times, dtype=np.float64),
                users=shard.users.astype(np.int64),
                keys=shard.ids.astype(np.int64),
            )
            for shard in self.iter_shards()
        ), chunk_size)  # fmt: skip

    def __iter__(self) -> Iterator[Request]:
        return iter_requests(self)

    def iter_uris(self) -> Iterator[str]:
        """The name table as URI strings, in content-id order (read, not
        rendered, from a table that holds URIs)."""
        uris = getattr(self.names, "iter_uris", None)
        return uris() if uris is not None else map(str, self.names)

    def content_coins(self, rule: ContentMarking) -> np.ndarray:
        """``rule.coin(uri)`` per content id: one sha256 pass over the
        name table per salt, shared by every fraction swept over it."""
        salt = str(rule.salt)
        if self._coins is None or self._coins[0] != salt:
            self._coins = (salt, rule.coins(self.iter_uris()))
        return self._coins[1]

    def lru_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(content id per request, occurrence order, LRU stack distance
        per request in occurrence order), ``int32``: one pass over the
        shards per trace object, shared by every LRU grid point over it
        (:mod:`repro.workload.lru_grid`)."""
        if self._lru is None:
            from repro.workload.lru_grid import occurrence_order, stack_distances

            ids = self.ids
            if isinstance(ids, np.memmap):  # one mapped shard: own a copy
                ids = np.array(ids)
            order = occurrence_order(ids)
            self._lru = (ids, order, np.take(stack_distances(ids, order), order))
        return self._lru

    def grid_flags(self, rule: MarkingRule) -> np.ndarray:
        """``rule``'s consumer privacy bit per request in occurrence order
        (:meth:`lru_columns`).

        An exact :class:`ContentMarking` is memoised, one entry keyed by
        salt and fraction, so every capacity swept under one marking
        shares the column; any other rule is evaluated afresh, because a
        :class:`~repro.workload.marking.RequestMarking` or a generic
        rule's draws advance its state.
        """
        from repro.workload.fast_replay import _trace_flags

        ids, order, _ = self.lru_columns()
        if type(rule) is not ContentMarking:
            return np.take(_trace_flags(rule, self, ids), order)
        key = (str(rule.salt), rule.fraction)
        if self._flags is None or self._flags[0] != key:
            self._flags = (key, np.take(_trace_flags(rule, self, ids), order))
        return self._flags[1]

    def grid_memoised(self, rule: Optional[MarkingRule]) -> bool:
        """True when :meth:`lru_columns` and :meth:`grid_flags` of ``rule``
        would read no shard or name-table byte: the columns are held, and
        so are the flags of an exact :class:`ContentMarking` or the coin
        column they come from (a fraction of 0 or 1 needs none)."""
        if self._lru is None or type(rule) is not ContentMarking:
            return False
        salt = str(rule.salt)
        if self._flags is not None and self._flags[0] == (salt, rule.fraction):
            return True
        if not 0.0 < rule.fraction < 1.0:
            return True
        return self._coins is not None and self._coins[0] == salt

    def _whole(self) -> TraceShard:
        """Every request as one shard: the only shard itself when there
        is exactly one, a concatenation (typed empties for none) otherwise."""
        shards = list(self.iter_shards())
        if len(shards) == 1:
            return shards[0]
        return TraceShard(0, 0, *(
            np.concatenate([np.asarray(getattr(s, column)) for s in shards])
            if shards else np.zeros(0, dtype=dtype)
            for column, dtype in COLUMNS
        ))

    ids = _whole_column("ids", "Content id per request (int32).")
    times = _whole_column("times", "Request timestamps in ms (float64).")
    users = _whole_column("users", "Requesting user per request (int32).")
    first_occurrence = _whole_column(
        "first_occurrence", "True at the first request of each content id."
    )
    occurrence_index = _whole_column(
        "occurrence", "Per-request count of earlier requests for the same id."
    )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(requests={self.n_requests}, "
            f"names={self.n_names}, shards={self.n_shards})"
        )


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``0..bound-1``.

    Below 2**16 the keys are sorted as ``uint16``: NumPy's stable sort
    of 16-bit keys is a radix sort (linear time), and a stable order is
    unique, so the permutation is the same.
    """
    if bound <= 65_536:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _occurrence_index(ids: np.ndarray, n_names: int) -> np.ndarray:
    """Vectorized per-id running occurrence counter (ids in
    ``0..n_names-1``)."""
    n = ids.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    order = _stable_order(ids, n_names)
    sorted_ids = ids[order]
    # Start offset of each id-run within the stable sort.
    run_start = np.zeros(n, dtype=np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new_run[1:])
    run_start[new_run] = np.flatnonzero(new_run)
    np.maximum.accumulate(run_start, out=run_start)
    occurrence = np.empty(n, dtype=np.int32)
    occurrence[order] = (np.arange(n, dtype=np.int64) - run_start).astype(np.int32)
    return occurrence

