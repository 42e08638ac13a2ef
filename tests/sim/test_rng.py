"""Unit tests for the named random-stream registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.errors import RngError
from repro.sim.rng import LazyStream, RngRegistry, as_generator, stream_key


class TestStreamIdentity:
    def test_same_name_returns_same_generator(self, registry):
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_different_generators(self, registry):
        assert registry.stream("a") is not registry.stream("b")

    def test_empty_name_rejected(self, registry):
        with pytest.raises(RngError):
            registry.stream("")

    def test_non_int_seed_rejected(self):
        with pytest.raises(RngError):
            RngRegistry(root_seed="nope")  # type: ignore[arg-type]

    def test_negative_seed_rejected_at_construction(self):
        # Not at the first draw, which a lazy stream may take deep inside
        # a kernel run.
        with pytest.raises(RngError, match=">= 0"):
            RngRegistry(-1)


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a = RngRegistry(1).stream("link").random(5)
        b = RngRegistry(1).stream("link").random(5)
        assert np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        a = RngRegistry(1).stream("link").random(5)
        b = RngRegistry(2).stream("link").random(5)
        assert not np.array_equal(a, b)

    def test_different_streams_are_independent(self):
        reg = RngRegistry(1)
        a = reg.stream("alpha").random(5)
        b = reg.stream("beta").random(5)
        assert not np.array_equal(a, b)

    def test_stream_isolation_from_consumption_order(self):
        # Draw order on one stream must not affect another stream's values.
        reg1 = RngRegistry(1)
        reg1.stream("noise").random(100)
        value_after = reg1.stream("signal").random()

        reg2 = RngRegistry(1)
        value_direct = reg2.stream("signal").random()
        assert value_after == value_direct

    def test_fork_does_not_advance_cached_stream(self):
        reg = RngRegistry(3)
        fork_draw = reg.fork("mc").random()
        cached_draw = reg.stream("mc").random()
        assert fork_draw == cached_draw  # fork starts from the same state

    def test_fork_is_fresh_each_time(self):
        reg = RngRegistry(3)
        assert reg.fork("mc").random() == reg.fork("mc").random()


class TestIntrospection:
    def test_stream_names_sorted(self, registry):
        registry.stream("z")
        registry.stream("a")
        assert registry.stream_names == ["a", "z"]

    def test_fork_not_recorded(self, registry):
        registry.fork("ghost")
        assert registry.stream_names == []


class TestLazyStream:
    def test_empty_name_rejected_at_construction(self, registry):
        with pytest.raises(RngError):
            LazyStream(registry, "")

    def test_nothing_is_built_before_the_first_resolve(self, registry):
        handle = LazyStream(registry, "link:a<->b")
        stream_key(handle)
        assert registry.stream_names == []
        assert handle.resolve() is registry.stream("link:a<->b")
        assert as_generator(handle) is handle.resolve()

    def test_keys_are_equal_exactly_when_the_generator_is_shared(self, registry):
        other = RngRegistry(registry.root_seed)
        a, b = LazyStream(registry, "s"), LazyStream(registry, "s")
        assert stream_key(a) == stream_key(b)  # neither resolved: (registry, name)
        assert stream_key(a) != stream_key(LazyStream(registry, "t"))
        assert stream_key(a) != stream_key(LazyStream(other, "s"))
        assert stream_key(a) != stream_key(registry.fork("s"))
        generator = registry.stream("s")  # the registry now holds the name
        assert stream_key(a) == stream_key(generator) == stream_key(b)
        a.resolve()
        assert stream_key(a) == stream_key(generator) == stream_key(b)
