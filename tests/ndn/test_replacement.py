"""Unit tests for cache replacement policies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ndn.errors import CacheError
from repro.ndn.name import Name
from repro.ndn.replacement import (
    FifoPolicy,
    IntKeyedLfu,
    IntKeyedOrder,
    IntKeyedRandom,
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


INT_KEYED = {
    "lru": lambda rng: IntKeyedOrder(refresh_on_access=True),
    "fifo": lambda rng: IntKeyedOrder(refresh_on_access=False),
    "lfu": lambda rng: IntKeyedLfu(),
    "random": IntKeyedRandom,
}


class TestIntKeyedMirrors:
    """What fast_replay and the batch kernel evict must be what the Content
    Store's policy of the same name would have."""

    @pytest.mark.parametrize("kind", sorted(INT_KEYED))
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.tuples(st.sampled_from(["touch", "touch", "evict"]), st.integers(0, 11)),
            max_size=120,
        )
    )
    def test_same_victim_sequence_as_reference(self, kind, script):
        names = [n(f"/obj/{cid}") for cid in range(12)]
        reference = make_policy(kind, np.random.default_rng(9))
        mirror = INT_KEYED[kind](np.random.default_rng(9))
        tracked = set()
        for op, cid in script:
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
