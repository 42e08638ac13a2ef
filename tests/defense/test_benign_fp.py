"""Benign false-positive suite: a diurnal IRCache day must raise nothing.

A defended edge router replays a synthetic IRCache proxy trace
(:mod:`repro.workload.ircache` — Zipf popularity, heavy-tailed users,
diurnal rate profile, browsing-session locality) for every privacy
scheme × caching strategy pair.  The acceptance bar is absolute: zero
alarms AND zero mitigations — the audit ledger stays empty on benign
traffic no matter how the cache behaves behind the detectors.

Hypothesis widens the arrival jitter and trace seed to make sure the
zero-FP property is not an artifact of one fixed replay.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.defense import DefenseConfig, install_defense
from repro.deploy.daemon import make_scheme
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.ndn.strategy import STRATEGIES
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator

SCHEMES = ("no-privacy", "uniform", "exponential", "always-delay")

#: Consumer faces at the edge; trace users hash onto them, so each face
#: aggregates a handful of users — the per-face view the detectors see.
FACES = 4


@lru_cache(maxsize=4)
def _benign_trace(seed: int):
    """A scaled-down diurnal proxy day (cached: the grid reuses it).

    The scale preserves what the detectors key on — Zipf re-request
    locality within each face's stream — while replaying in milliseconds:
    8 users browsing a 90-object catalog over a compressed diurnal day.
    (Calibrated against the pollution detector's novelty margin: the
    worst per-face first-seen EWMA across the widened seed family stays
    ≈0.44, well under the 0.55 alarm threshold.)
    """
    config = IrcacheConfig(
        requests=700,
        users=8,
        objects=90,
        sites=24,
        popularity_exponent=1.0,
        session_locality=0.4,
        duration_hours=0.25,
        seed=seed,
    )
    return IrcacheGenerator(config).generate()


def _replay(scheme: str, strategy: str, trace_seed: int = 0, jitter_ms: float = 0.0):
    """Replay the benign trace through a defended edge; returns the agent
    plus (requests, delivered) so the test can prove traffic flowed."""
    net = Network(rng=RngRegistry(trace_seed))
    edge = net.add_router(
        "E",
        capacity=64,
        scheme=make_scheme(scheme, net.rng.stream("scheme:E")),
        caching=strategy,
    )
    net.add_producer("P", "/")
    consumers = [net.add_consumer(f"F{i}") for i in range(FACES)]
    for consumer in consumers:
        net.connect(consumer.name, "E", FixedDelay(0.5))
    net.connect("E", "P", FixedDelay(2.0))
    net.add_route("E", "/", "P")
    agent = install_defense(edge, DefenseConfig.preset("adaptive"))

    trace = _benign_trace(trace_seed)
    jitter_rng = np.random.default_rng(trace_seed + 1000)
    per_face = [[] for _ in range(FACES)]
    for request in trace:
        jitter = jitter_rng.uniform(0.0, jitter_ms) if jitter_ms > 0 else 0.0
        per_face[request.user % FACES].append(
            (request.time + jitter, request.name)
        )
    delivered = [0]
    total = sum(len(reqs) for reqs in per_face)

    def replay(consumer, reqs):
        for time, name in sorted(reqs):
            if time > consumer.engine.now:
                yield Timeout(time - consumer.engine.now)
            result = yield from consumer.fetch(name, lifetime=5000.0)
            if result is not None:
                delivered[0] += 1

    for consumer, reqs in zip(consumers, per_face):
        net.engine.spawn(replay(consumer, reqs), label=f"replay:{consumer.name}")
    net.engine.run()
    return agent, edge, total, delivered[0]


def _assert_silent(agent, edge, requests, delivered):
    assert agent.log.total == 0, [str(a) for a in agent.log.alarms]
    assert agent.mitigations == []
    assert edge.monitor.counter("defense_throttled") == 0
    assert edge.monitor.counter("cache_quarantined") == 0
    assert edge.monitor.counter("pit_shed") == 0
    # The silence is meaningful only if the day actually replayed.
    assert requests == 700
    assert delivered >= int(0.95 * requests)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_benign_diurnal_day_raises_nothing(scheme, strategy):
    """Every scheme × strategy pair: empty alarm log, empty ledger."""
    _assert_silent(*_replay(scheme, strategy))


def test_benign_replay_is_seed_reproducible():
    agent_a, edge_a, *_ = _replay("uniform", "probcache")
    agent_b, edge_b, *_ = _replay("uniform", "probcache")
    assert dict(edge_a.stats_summary()) == dict(edge_b.stats_summary())
    assert agent_a.log.total == agent_b.log.total == 0


@settings(max_examples=8, deadline=None)
@given(
    jitter_ms=st.floats(min_value=0.0, max_value=500.0),
    trace_seed=st.integers(min_value=0, max_value=3),
)
def test_benign_silence_survives_widened_jitter(jitter_ms, trace_seed):
    """Arrival perturbation and fresh trace seeds must not manufacture
    alarms: the zero-FP bar holds across the widened replay family."""
    _assert_silent(
        *_replay("uniform", "lce", trace_seed=trace_seed, jitter_ms=jitter_ms)
    )
