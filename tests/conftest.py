"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.cs import CacheEntry, ContentStore
from repro.ndn.name import Name
from repro.ndn.packets import Data
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.workload.compiled import CompiledTrace
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.sharded import compile_workload
from repro.workload.streaming import RequestBlock


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


@pytest.fixture(scope="session")
def ircache_trace() -> CompiledTrace:
    """The 100 000-request synthetic IRCache trace (seed 2007) behind
    EXPERIMENTS.md's Figure 5 and ablation tables."""
    return IrcacheGenerator(IrcacheConfig(requests=100_000, seed=2007)).generate()


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


class RequestList:
    """A hand-written list of :class:`Request` records as a workload:
    keys are the names' first-appearance indices, one block holds all."""

    def __init__(self, requests) -> None:
        self.requests = list(requests)
        self.names = list(dict.fromkeys(request.name for request in self.requests))
        self._key = {name: key for key, name in enumerate(self.names)}

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def n_names(self) -> int:
        return len(self.names)

    key_space = n_names

    def uris_of(self, keys):
        return [str(self.names[key]) for key in keys.tolist()]

    def iter_blocks(self, chunk_size=None):
        if self.requests:
            yield RequestBlock(
                times=np.array([r.time for r in self.requests], dtype=np.float64),
                users=np.array([r.user for r in self.requests], dtype=np.int64),
                keys=np.array([self._key[r.name] for r in self.requests], dtype=np.int64),
            )

    def __iter__(self):
        return iter(self.requests)


def compiled_trace(requests) -> CompiledTrace:
    """Compile hand-written requests, the way a test builds a trace."""
    return compile_workload(RequestList(requests))

