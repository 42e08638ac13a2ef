"""Unit tests for cache replacement policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from repro.ndn.errors import CacheError
from repro.ndn.name import Name
from repro.ndn.replacement import (
    FifoPolicy,
    IntKeyedRandom,
    IntrusiveLfu,
    IntrusiveOrder,
    LfuPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)


def n(uri: str) -> Name:
    return Name.parse(uri)


class TestLru:
    def test_victim_is_least_recent_insert(self):
        policy = LruPolicy()
        policy.on_insert(n("/a"))
        policy.on_insert(n("/b"))
        assert policy.choose_victim() == n("/a")

    def test_access_refreshes_recency(self):
        policy = LruPolicy()
        policy.on_insert(n("/a"))
        policy.on_insert(n("/b"))
        policy.on_access(n("/a"))
        assert policy.choose_victim() == n("/b")

    def test_remove_untracks(self):
        policy = LruPolicy()
        policy.on_insert(n("/a"))
        policy.on_remove(n("/a"))
        assert len(policy) == 0
        with pytest.raises(CacheError):
            policy.choose_victim()

    def test_access_untracked_raises(self):
        with pytest.raises(CacheError):
            LruPolicy().on_access(n("/ghost"))


class TestFifo:
    def test_access_does_not_refresh(self):
        policy = FifoPolicy()
        policy.on_insert(n("/a"))
        policy.on_insert(n("/b"))
        policy.on_access(n("/a"))
        assert policy.choose_victim() == n("/a")

    def test_reinsert_moves_to_back(self):
        policy = FifoPolicy()
        policy.on_insert(n("/a"))
        policy.on_insert(n("/b"))
        policy.on_insert(n("/a"))
        assert policy.choose_victim() == n("/b")

    def test_empty_victim_raises(self):
        with pytest.raises(CacheError):
            FifoPolicy().choose_victim()


class TestLfu:
    def test_victim_is_least_frequent(self):
        policy = LfuPolicy()
        policy.on_insert(n("/a"))
        policy.on_insert(n("/b"))
        policy.on_access(n("/a"))
        assert policy.choose_victim() == n("/b")

    def test_tie_breaks_fifo(self):
        policy = LfuPolicy()
        policy.on_insert(n("/a"))
        policy.on_insert(n("/b"))
        assert policy.choose_victim() == n("/a")

    def test_remove_clears_state(self):
        policy = LfuPolicy()
        policy.on_insert(n("/a"))
        policy.on_remove(n("/a"))
        assert len(policy) == 0

    def test_access_untracked_raises(self):
        with pytest.raises(CacheError):
            LfuPolicy().on_access(n("/ghost"))


class TestRandom:
    def test_victim_is_tracked_name(self):
        policy = RandomPolicy(np.random.default_rng(0))
        names = [n(f"/x/{i}") for i in range(10)]
        for name in names:
            policy.on_insert(name)
        assert policy.choose_victim() in names

    def test_remove_keeps_structure_consistent(self):
        policy = RandomPolicy(np.random.default_rng(0))
        names = [n(f"/x/{i}") for i in range(5)]
        for name in names:
            policy.on_insert(name)
        policy.on_remove(n("/x/2"))
        assert len(policy) == 4
        for _ in range(20):
            assert policy.choose_victim() != n("/x/2")

    def test_deterministic_with_seed(self):
        def victims(seed):
            policy = RandomPolicy(np.random.default_rng(seed))
            for i in range(10):
                policy.on_insert(n(f"/x/{i}"))
            return [policy.choose_victim() for _ in range(5)]

        assert victims(7) == victims(7)

    def test_duplicate_insert_ignored(self):
        policy = RandomPolicy(np.random.default_rng(0))
        policy.on_insert(n("/a"))
        policy.on_insert(n("/a"))
        assert len(policy) == 1


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("lru", LruPolicy),
        ("fifo", FifoPolicy),
        ("lfu", LfuPolicy),
        ("random", RandomPolicy),
    ])
    def test_make_policy(self, kind, cls):
        assert isinstance(make_policy(kind, np.random.default_rng(0)), cls)

    def test_unknown_policy_rejected(self):
        with pytest.raises(CacheError):
            make_policy("mru")


#: kind -> mirror factory (generator, id universe size).
INT_KEYED = {
    "lru": lambda rng, n_ids: IntrusiveOrder(n_ids, refresh_on_access=True),
    "fifo": lambda rng, n_ids: IntrusiveOrder(n_ids, refresh_on_access=False),
    "lfu": lambda rng, n_ids: IntrusiveLfu(n_ids),
    "random": lambda rng, n_ids: IntKeyedRandom(rng),
}


def _check_cache(kind: str, capacity: int, universe: int, seed: int, churn: int) -> None:
    """Drive the reference policy and the mirror as one cache of
    ``capacity`` over ids ``0 .. universe-1``: fill it with distinct ids,
    then a Zipf-skewed request mix (a miss evicts when full, a hit
    accesses) where about one miss in 50 evicts one more, so the cache
    also runs below capacity.  Every victim must agree.

    The reference is keyed by the int ids themselves: its bookkeeping is
    plain dicts, so any hashable key behaves as a ``Name`` would, without
    building 10**5 names per example.
    """
    rng = np.random.default_rng(seed)
    hot = (rng.zipf(1.3, churn) - 1) % universe
    cold = rng.integers(0, universe, churn)
    requests = np.concatenate((
        rng.permutation(universe)[:capacity],
        np.where(rng.random(churn) < 0.7, hot, cold),
    )).tolist()  # fmt: skip
    extra_pops = set((capacity + np.flatnonzero(rng.random(churn) < 0.02)).tolist())
    reference = make_policy(kind)
    mirror = INT_KEYED[kind](None, universe)
    cached = bytearray(universe)
    size = 0
    for i, cid in enumerate(requests):
        if cached[cid]:
            reference.on_access(cid)
            mirror.access(cid)
            continue
        for _ in range(min(size, (size >= capacity) + (i in extra_pops))):
            victim = reference.choose_victim()
            reference.on_remove(victim)
            assert mirror.pop_victim() == victim, (kind, capacity, i)
            cached[victim] = 0
            size -= 1
        reference.on_insert(cid)
        mirror.insert(cid)
        cached[cid] = 1
        size += 1


#: (capacity, universe, seed, churn): capacities up to 10**5, universes
#: past the capacity, several thousand requests of churn.
CACHES = st.one_of(st.integers(1, 64), st.integers(1, 100_000)).flatmap(
    lambda capacity: st.tuples(
        st.just(capacity),
        st.integers(capacity + 1, 3 * capacity + 64),
        st.integers(0, 2**32 - 1),
        st.integers(0, 20_000),
    )
)


class TestIntKeyedMirrors:
    """What fast_replay and the batch kernel evict must be what the Content
    Store's policy of the same name would have."""

    @pytest.mark.parametrize("kind", sorted(INT_KEYED))
    @settings(max_examples=60, deadline=None)
    @given(
        universe=st.integers(13, 64),
        script=st.lists(
            st.tuples(st.sampled_from(["touch", "touch", "evict"]), st.integers(0, 63)),
            max_size=160,
        ),
    )
    def test_same_victim_sequence_as_reference(self, kind, universe, script):
        names = [n(f"/obj/{cid}") for cid in range(universe)]
        reference = make_policy(kind, np.random.default_rng(9))
        mirror = INT_KEYED[kind](np.random.default_rng(9), universe)
        tracked = set()
        for op, cid in script:
            cid %= universe
            if op == "evict":
                if not tracked:
                    continue
                victim = reference.choose_victim()
                reference.on_remove(victim)
                evicted = mirror.pop_victim()
                assert names[evicted] == victim
                tracked.remove(evicted)
            elif cid in tracked:
                reference.on_access(names[cid])
                mirror.access(cid)
            else:
                reference.on_insert(names[cid])
                mirror.insert(cid)
                tracked.add(cid)

    @pytest.mark.parametrize("kind", ["fifo", "lfu", "lru"])
    @settings(max_examples=40, deadline=None)
    @given(cache=CACHES)
    @example(cache=(100_000, 250_000, 1, 20_000))
    @example(cache=(1, 2, 2, 500))
    def test_victims_at_real_sizes(self, kind, cache):
        _check_cache(kind, *cache)


# ----------------------------------------------------------------------
# Work counts: slots touched per operation, not wall time
# ----------------------------------------------------------------------
class _CountingList(list):
    """A list that counts its element reads and writes."""

    reads = writes = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


def _zipf_mix(mirror, capacity: int, universe: int, operations: int, counter):
    """Run ``operations`` requests, 70% Zipf-skewed and 30% uniform over
    ``universe`` ids, through ``mirror`` as a cache of ``capacity``; about
    one miss in 50 evicts twice, so the cache also shrinks and the victim
    scan has empty buckets to climb past.

    Returns (what ``counter()`` grew by inside each ``pop_victim``, the
    number of accesses).
    """
    rng = np.random.default_rng(3)
    hot = (rng.zipf(1.2, operations) - 1) % universe
    cold = rng.integers(0, universe, operations)
    twice = (rng.random(operations) < 0.02).tolist()
    cached = bytearray(universe)
    size = accesses = 0
    work = []
    for i, cid in enumerate(np.where(rng.random(operations) < 0.7, hot, cold).tolist()):
        if cached[cid]:
            mirror.access(cid)
            accesses += 1
            continue
        for _ in range(2 if twice[i] else 1):
            if size >= capacity or (twice[i] and size):
                start = counter()
                cached[mirror.pop_victim()] = 0
                work.append(counter() - start)
                size -= 1
        mirror.insert(cid)
        cached[cid] = 1
        size += 1
    return work, accesses


@pytest.mark.parametrize("capacity", [96_000, 64])
def test_lfu_victim_scan_is_amortised_constant(capacity):
    # pop_victim probes buckets upward from min_freq; a probe past the
    # first is paid for by an access that raised the victim's frequency.
    # At capacity 64 the hot set empties the low buckets and the scan
    # climbs (up to ~90 buckets in one pop).
    lfu = IntrusiveLfu(400_000)
    head = lfu.head = _CountingList(lfu.head)
    probes, accesses = _zipf_mix(lfu, capacity, 400_000, 400_000, lambda: head.reads)
    assert len(probes) > 10_000 and accesses > 10_000
    assert sum(probes) <= len(probes) + accesses


@pytest.mark.parametrize("refresh_on_access", [True, False], ids=["lru", "fifo"])
def test_order_pop_touches_constant_slots(refresh_on_access):
    order = IntrusiveOrder(400_000, refresh_on_access)
    nxt = order.nxt = _CountingList(order.nxt)
    prv = order.prv = _CountingList(order.prv)
    touched, _ = _zipf_mix(
        order, 96_000, 400_000, 400_000,
        lambda: nxt.reads + nxt.writes + prv.reads + prv.writes,
    )  # fmt: skip
    assert len(touched) > 10_000
    assert set(touched) == {4}


# ----------------------------------------------------------------------
# Mutants: each breaks one rule of a mirror; the property must fail
# ----------------------------------------------------------------------
def _lfu_newest_first(real):
    def pop_victim(self):
        # Ties inside the lowest bucket broken by the newest entry.
        head = self.head
        freq = self.min_freq
        while head[freq] == -1:
            freq += 1
        self.min_freq = freq
        victim = self.tail[freq]
        before = self.prv[victim]
        self.tail[freq] = before
        if before == -1:
            head[freq] = -1
        else:
            self.nxt[before] = -1
        return victim

    return pop_victim


def _lfu_min_freq_kept_on_insert(real):
    def insert(self, cid):
        min_freq = self.min_freq
        real(self, cid)
        self.min_freq = min_freq

    return insert


def _lru_victim_from_tail(real):
    def pop_victim(self):
        nxt = self.nxt
        prv = self.prv
        victim = prv[self.sentinel]
        before = prv[victim]
        prv[self.sentinel] = before
        nxt[before] = self.sentinel
        return victim

    return pop_victim


def _fifo_refreshes_on_access(real):
    def access(self, cid):
        refresh = self.refresh_on_access
        self.refresh_on_access = True
        real(self, cid)
        self.refresh_on_access = refresh

    return access


#: mutant -> (policy kind, the mirror class, the method it replaces, factory).
MUTANTS = {
    "lfu tie broken newest-first": ("lfu", IntrusiveLfu, "pop_victim", _lfu_newest_first),
    "lfu min_freq not reset on insert": (
        "lfu", IntrusiveLfu, "insert", _lfu_min_freq_kept_on_insert,
    ),
    "lru victim taken from the tail": (
        "lru", IntrusiveOrder, "pop_victim", _lru_victim_from_tail,
    ),
    "fifo refreshes on access": ("fifo", IntrusiveOrder, "access", _fifo_refreshes_on_access),
}


def apply_mutant(monkeypatch, mutant: str) -> str:
    """Monkeypatch ``mutant`` into its mirror class; returns its policy kind."""
    kind, cls, method, make = MUTANTS[mutant]
    monkeypatch.setattr(cls, method, make(getattr(cls, method)))
    return kind


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_property_kills_each_mutant(mutant, monkeypatch):
    kind = apply_mutant(monkeypatch, mutant)

    @settings(
        max_examples=200, deadline=None, database=None,
        phases=[Phase.generate], report_multiple_bugs=False,
    )  # fmt: skip
    @given(cache=CACHES)
    def prop(cache):
        _check_cache(kind, *cache)

    # A scan that starts above every populated bucket runs off the
    # bucket list: an IndexError is a kill too.
    with pytest.raises((AssertionError, IndexError)):
        prop()
