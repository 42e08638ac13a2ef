"""The flagship checks: sim/socket differential and the hostile soak.

The differential is the deployment mode's correctness proof: the same
geo spec run in the discrete-event simulator and over real UDP sockets
must produce identical per-request cache decisions, identical
edge-cache contents at probe time, and identical probe verdicts, under
every privacy scheme.  The soak is the robustness proof: a supervised daemon behind
a faulty proxy survives malformed floods, mgmt garbage, an interest
flood, and a producer crash with zero task deaths and the conservation
invariants intact.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.deploy.scenario import (
    GeoSpec,
    SoakSpec,
    build_workload,
    differential,
    run_geo_sim,
    run_geo_socket,
    run_soak,
)

SMALL = dict(
    catalog_size=12,
    requests=20,
    probes=8,
    edge_cs_capacity=8,
    vpn_cs_capacity=4,
    probe_timeout=200.0,
)


class TestWorkload:
    def test_workload_is_pure_in_the_seed(self):
        spec = GeoSpec(seed=3, **SMALL)
        assert build_workload(spec) == build_workload(spec)
        other = build_workload(GeoSpec(seed=4, **SMALL))
        assert build_workload(spec) != other

    def test_probe_targets_mix_hot_and_cold(self):
        requests, targets = build_workload(GeoSpec(seed=3, **SMALL))
        hot = [t for t in targets if t in requests]
        cold = [t for t in targets if t not in requests]
        assert hot and cold
        assert all(t.startswith("/cdn/cold-") for t in cold)


SCHEMES = ["no-privacy", "uniform", "exponential", "always-delay"]

#: ``run_geo_sim`` at ``GeoSpec(seed=7)``: per-hop decision counts (VPN
#: exit, CDN edge).  The no-privacy row was recorded while the origin
#: still published public content; private content leaves it unmoved
#: and turns edge hits into disguised (delayed) hits under the schemes.
PINNED_SEED7 = {
    "no-privacy": {"cs_miss": 22, "cs_hit": 9},
    "uniform": {"cs_miss": 22, "cs_disguised_hit": 8, "cs_hit": 1},
    "exponential": {"cs_miss": 22, "cs_disguised_hit": 4, "cs_hit": 5},
    "always-delay": {"cs_miss": 22, "cs_disguised_hit": 9},
}
#: The VPN exit runs no privacy scheme, so its decisions never move.
PINNED_VPN_SEED7 = {"cs_miss": 31, "cs_hit": 29}
#: Probe verdicts at seed 7 (six hot targets, then six cold ones).
PINNED_VERDICTS_SEED7 = [True, False, True, True] + [False] * 8


def hop_counts(result, hop):
    """Decision counts at one hop (1 = VPN exit, 2 = edge); "none" dropped."""
    counts = Counter(decision[hop] for decision in result.decisions)
    del counts["none"]
    return dict(counts)


class TestGeoSim:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_seed7_decisions_and_verdicts_are_pinned(self, scheme):
        result = run_geo_sim(GeoSpec(seed=7, scheme=scheme))
        assert hop_counts(result, 1) == PINNED_VPN_SEED7
        assert hop_counts(result, 2) == PINNED_SEED7[scheme]
        assert [answered for _, answered in result.probe_verdicts] == (
            PINNED_VERDICTS_SEED7
        )
        assert result.summary()["edge_hit_rate"] == 0.2903
        assert result.probe_accuracy == 1.0

    @pytest.mark.parametrize("scheme", SCHEMES[1:])
    def test_private_origin_makes_the_edge_disguise_hits(self, scheme):
        """The origin publishes private content, so every privacy scheme
        at the edge answers some cached requests as disguised hits."""
        result = run_geo_sim(GeoSpec(scheme=scheme))
        assert hop_counts(result, 2).get("cs_disguised_hit", 0) > 0

    def test_sim_run_is_reproducible(self):
        spec = GeoSpec(seed=5, scheme="uniform", **SMALL)
        a, b = run_geo_sim(spec), run_geo_sim(spec)
        assert a.decisions == b.decisions
        assert a.probe_verdicts == b.probe_verdicts
        assert not a.violations

    def test_no_privacy_probes_are_perfectly_accurate(self):
        spec = GeoSpec(seed=5, scheme="no-privacy", **SMALL)
        result = run_geo_sim(spec)
        assert result.probe_accuracy == 1.0
        assert result.fetch_failures == 0


class TestDifferential:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_socket_run_reproduces_sim_decisions(self, scheme):
        """The acceptance differential: zero mismatches, every scheme."""
        spec = GeoSpec(seed=7, scheme=scheme, **SMALL)
        sim = run_geo_sim(spec)
        socket = run_geo_socket(spec)
        mismatches = differential(sim, socket)
        assert mismatches == []
        assert not sim.violations and not socket.violations
        assert socket.fetch_failures == 0

    def test_differential_detects_disagreement(self):
        spec = GeoSpec(seed=7, scheme="uniform", **SMALL)
        sim = run_geo_sim(spec)
        # A different seed is a different run: the differential must see it.
        other = run_geo_sim(GeoSpec(seed=8, scheme="uniform", **SMALL))
        other.mode = "socket"
        assert differential(sim, other) != []


class TestSoak:
    def test_short_soak_survives_hostile_conditions(self):
        spec = SoakSpec(
            background_fetches=10,
            malformed_packets=60,
            mgmt_garbage_lines=10,
            flood_interests=40,
            crash_fetches=3,
            pit_capacity=32,
            fetch_timeout=200.0,
        )
        report = run_soak(spec)
        assert report.ok, report.summary()
        assert report.phases["malformed_flood"]["dropped"] > 0
        assert report.phases["mgmt_garbage"]["rejected"] == 10
        assert report.phases["producer_crash"]["recovered_after_restart"] > 0
