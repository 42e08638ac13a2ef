"""Tests for the Figure 3 topology builders and their calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ndn.topology import (
    FIG3_PANELS,
    HARNESS_SHAPES,
    SCALE_GRAPHS,
    SIM_CORE_SHAPES,
    TOPOLOGIES,
    local_host,
    local_lan,
    wan,
    wan_producer,
)
from repro.sim.process import Timeout


def measure_hit_miss(topo, n=10):
    """Fetch n fresh objects (misses), then re-fetch them (hits)."""
    miss_rtts, hit_rtts = [], []

    def proc():
        for i in range(n):
            result = yield from topo.adversary.fetch(
                f"/content/cal-{i}", timeout=10_000.0
            )
            miss_rtts.append(result.rtt)
            yield Timeout(5.0)
        for i in range(n):
            result = yield from topo.adversary.fetch(
                f"/content/cal-{i}", timeout=10_000.0
            )
            hit_rtts.append(result.rtt)
            yield Timeout(5.0)

    topo.engine.spawn(proc())
    topo.engine.run()
    return np.array(hit_rtts), np.array(miss_rtts)


class TestRegistry:
    def test_all_four_settings_present(self):
        assert set(FIG3_PANELS) == {
            "fig3a_lan",
            "fig3b_wan",
            "fig3c_wan_producer",
            "fig3d_local_host",
        }
        # The named views partition the one registry.
        views = FIG3_PANELS + SCALE_GRAPHS + SIM_CORE_SHAPES + HARNESS_SHAPES
        assert sorted(views) == sorted(TOPOLOGIES)

    @pytest.mark.parametrize("builder", [TOPOLOGIES[name] for name in FIG3_PANELS])
    def test_builders_produce_working_topologies(self, builder):
        topo = builder(seed=0)
        hits, misses = measure_hit_miss(topo, n=3)
        assert len(hits) == 3 and len(misses) == 3


class TestCalibration:
    def test_lan_band(self):
        """Fig. 3(a): hits ~3.3-4.5 ms, misses ~6-12 ms."""
        hits, misses = measure_hit_miss(local_lan(seed=1), n=20)
        assert 3.0 < hits.mean() < 4.5
        assert 5.5 < misses.mean() < 12.0
        assert hits.max() < misses.min()

    def test_wan_band(self):
        """Fig. 3(b): hits ~4.5-7 ms, misses ~9-22 ms, jittery."""
        hits, misses = measure_hit_miss(wan(seed=1), n=20)
        assert 4.0 < hits.mean() < 8.0
        assert 9.0 < misses.mean() < 25.0

    def test_wan_producer_band(self):
        """Fig. 3(c): both ~180-220 ms, gap of only a few ms."""
        hits, misses = measure_hit_miss(wan_producer(seed=1), n=20)
        assert 170.0 < hits.mean() < 230.0
        gap = misses.mean() - hits.mean()
        assert 2.0 < gap < 12.0

    def test_local_host_band(self):
        """Fig. 3(d): hits sub-millisecond, misses ~2-12 ms."""
        hits, misses = measure_hit_miss(local_host(seed=1), n=20)
        assert hits.mean() < 1.0
        assert misses.mean() > 1.5


class TestStructure:
    def test_wan_has_intermediate_routers(self):
        topo = wan(seed=0, producer_hops=3)
        assert len(topo.producer_path) == 2  # R1, R2 between R and P

    def test_wan_producer_access_path_does_not_cache(self):
        topo = wan_producer(seed=0)
        assert topo.access_path  # intermediate routers exist

        def proc():
            yield from topo.adversary.fetch("/content/x", timeout=10_000.0)

        topo.engine.spawn(proc())
        topo.engine.run()
        for router in topo.access_path:
            assert len(router.cs) == 0
        assert len(topo.router.cs) == 1  # R itself caches

    def test_scheme_injection(self):
        from repro.core.schemes.always_delay import AlwaysDelayScheme

        topo = local_lan(seed=0, scheme=AlwaysDelayScheme())
        assert topo.router.scheme.name == "always-delay"

    def test_invalid_hop_counts(self):
        with pytest.raises(ValueError):
            wan(producer_hops=0)
        with pytest.raises(ValueError):
            wan_producer(access_hops=0)

    def test_seeds_change_delays(self):
        hits_a, _ = measure_hit_miss(local_lan(seed=1), n=3)
        hits_b, _ = measure_hit_miss(local_lan(seed=2), n=3)
        assert not np.array_equal(hits_a, hits_b)
