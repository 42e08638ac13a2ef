"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.cs import CacheEntry, ContentStore
from repro.ndn.name import Name
from repro.ndn.packets import Data
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


@pytest.fixture(scope="session", autouse=True)
def _trace_cache_in_tmp(tmp_path_factory):
    """Keep the suite's trace cache out of ``$HOME``: no stale or foreign
    entry is served to a test, and none is left behind.  A test that sets
    ``REPRO_TRACE_CACHE`` itself still wins."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_TRACE_CACHE", str(tmp_path_factory.mktemp("trace-cache"))
        )
        yield


@pytest.fixture
def engine() -> Engine:
    """A fresh simulation engine starting at t=0."""
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def registry() -> RngRegistry:
    """A deterministic named-stream registry."""
    return RngRegistry(root_seed=7)


def make_entry(
    uri: str = "/test/object",
    private: bool = True,
    fetch_delay: float = 10.0,
    producer_private: bool = False,
) -> CacheEntry:
    """A standalone cache entry for scheme-level tests."""
    entry = CacheEntry(
        data=Data(name=Name.parse(uri), private=producer_private),
        insert_time=0.0,
        last_access=0.0,
        fetch_delay=fetch_delay,
        private=private,
    )
    return entry


@pytest.fixture
def cache_entry() -> CacheEntry:
    """A private cache entry with a 10 ms recorded fetch delay."""
    return make_entry()


@pytest.fixture
def small_cs() -> ContentStore:
    """A 4-entry LRU content store."""
    return ContentStore(capacity=4)
