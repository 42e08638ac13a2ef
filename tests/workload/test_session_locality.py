"""Tests for browsing-session temporal locality in the trace generator."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.workload.ircache import IrcacheConfig, IrcacheGenerator


def same_site_rate(trace) -> float:
    """Fraction of consecutive same-user requests that stay on one site."""
    last_site = {}
    stays = 0
    transitions = 0
    for request in trace:
        site = request.name[0]
        previous = last_site.get(request.user)
        if previous is not None:
            transitions += 1
            stays += site == previous
        last_site[request.user] = site
    return stays / transitions if transitions else 0.0


def make_trace(locality: float, seed: int = 0):
    config = IrcacheConfig(
        requests=15_000, users=40, objects=20_000, sites=300,
        session_locality=locality, seed=seed,
    )
    return IrcacheGenerator(config).generate()


class TestSessionLocality:
    def test_locality_raises_same_site_rate(self):
        iid = same_site_rate(make_trace(0.0))
        local = same_site_rate(make_trace(0.7))
        assert local > iid + 0.3

    def test_locality_rate_tracks_parameter(self):
        rate = same_site_rate(make_trace(0.8))
        # Not exact (session resets on global redraws landing on a new
        # site), but it must be in the neighborhood of the parameter.
        assert 0.6 < rate < 0.95

    def test_request_count_preserved(self):
        trace = make_trace(0.5)
        assert trace.n_requests == 15_000

    def test_sites_remain_consistent_per_object(self):
        trace = make_trace(0.6)
        seen = {}
        for request in trace:
            site, obj = request.name[0], request.name[1]
            assert seen.setdefault(obj, site) == site

    def test_locality_lengthens_browsing_runs(self):
        """The knob exists so grouping experiments see realistic
        correlated runs: per-user same-site streaks must get longer."""

        def mean_run_length(trace):
            per_user = defaultdict(list)
            for request in trace:
                per_user[request.user].append(request.name[0])
            runs = []
            for sites in per_user.values():
                length = 1
                for a, b in zip(sites, sites[1:]):
                    if a == b:
                        length += 1
                    else:
                        runs.append(length)
                        length = 1
                runs.append(length)
            return sum(runs) / len(runs)

        assert mean_run_length(make_trace(0.7)) > 2 * mean_run_length(
            make_trace(0.0)
        )

    def test_invalid_locality_rejected(self):
        with pytest.raises(ValueError):
            IrcacheConfig(session_locality=1.0)
        with pytest.raises(ValueError):
            IrcacheConfig(session_locality=-0.1)

    def test_zero_locality_unchanged_reproducibility(self):
        a = make_trace(0.0, seed=5)
        b = make_trace(0.0, seed=5)
        assert [(r.time, r.user, r.name) for r in a] == [
            (r.time, r.user, r.name) for r in b
        ]
