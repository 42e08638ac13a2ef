"""``replay_hierarchy`` pinned to values recorded from its per-request,
``Name``-keyed implementation: reading compiled columns must not change a
count or a latency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schemes.registry import SchemeSpec
from repro.workload.hierarchy import HierarchyStats, LevelConfig, replay_hierarchy
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import ContentMarking, NoMarking, RequestMarking

#: (marking, seed) -> (edge hits, core hits, origin fetches, private
#: requests, latency total in ms); 3000 requests each.
GOLDEN = {
    ("none", 3): (832, 1037, 1131, 0, 113824.0),
    ("content", 3): (697, 705, 1131, 792, 143944.0),
    ("request", 3): (794, 1002, 1131, 944, 117888.0),
    ("none", 7): (843, 1024, 1133, 0, 113896.0),
    ("content", 7): (481, 721, 1133, 1055, 157352.0),
    ("request", 7): (805, 1010, 1133, 899, 116360.0),
}


@pytest.mark.parametrize("marking, seed", sorted(GOLDEN))
def test_hierarchy_stats_match_the_recorded_golden(marking, seed):
    trace = IrcacheGenerator(
        IrcacheConfig(requests=3000, users=30, objects=600, seed=seed)
    ).generate()
    edge_scheme = SchemeSpec("uniform", {"k": 5, "delta": 0.01}).build(
        np.random.default_rng(seed)
    )
    core_scheme = SchemeSpec("exponential", {"k": 5, "epsilon": 0.005, "delta": 0.01}).build(
        np.random.default_rng(seed + 1)
    )
    levels = [
        LevelConfig("edge", cache_size=60, scheme=edge_scheme, link_delay=1.0),
        LevelConfig(
            "core", cache_size=240, scheme=core_scheme, policy="lfu", link_delay=4.0
        ),
    ]
    rule = {
        "none": NoMarking(),
        "content": ContentMarking(0.3, salt=seed),
        "request": RequestMarking(0.3, seed=seed),
    }[marking]
    edge, core, origin, private, latency = GOLDEN[(marking, seed)]
    assert replay_hierarchy(trace, levels, marking=rule, seed=seed) == HierarchyStats(
        requests=3000,
        hits_by_level={"edge": edge, "core": core},
        origin_fetches=origin,
        private_requests=private,
        latency_total=latency,
    )
