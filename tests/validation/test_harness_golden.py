"""The overload and defense harnesses stay bit-identical to a recorded golden.

``golden_harness_tallies.json`` pins what each harness reports of its run
for the four :data:`~repro.validation.scenario.OVERLOAD_CONFIGS` at seed 7
and for every defense preset (``off``, ``static``, ``monitor`` and
``adaptive``) against no attack, pollution, flood and the adaptive
attacker, at the ledger's ``frontier_sweep`` window (3 000 ms, the attack
from 20% to 70% of it) and seeds 0 and 1: engine events fired, requests
made and delivered, edge hits and every router's ``stats_summary()``.
The ``off``/``adaptive`` runs were recorded while both harnesses still
drove their consumers with hand-written processes and hand-kept tallies;
the ``static``/``monitor`` runs while the defense tree was still built by
hand, so ``static`` pins which routers carry its rate limit.  A traffic
description or topology that moves one event, draw or counter shows here
as a named value of a named run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.defense.scenario import DefenseScenarioSpec, run_defense_scenario
from repro.validation.scenario import OVERLOAD_CONFIGS, run_overload_scenario

GOLDEN = json.loads(
    Path(__file__).with_name("golden_harness_tallies.json").read_text("utf-8")
)


def overload_tallies(config: str) -> dict:
    result = run_overload_scenario(seed=GOLDEN["overload_seed"], **OVERLOAD_CONFIGS[config])
    return {
        "events": result.events,
        "delivered": result.delivered,
        "attempted": result.attempted,
        "router_summary": dict(result.router_summary),
    }


def defense_tallies(defense: str, attack: str, seed: int) -> dict:
    window = GOLDEN["defense_window"]
    result = run_defense_scenario(
        DefenseScenarioSpec(defense=defense, attack=attack, seed=seed, **window)
    )
    observed = result.observables
    return {
        "events": observed.events_processed,
        "requests": result.honest_requests,
        "delivered": result.honest_delivered,
        "edge_hit_rate": result.edge_hit_rate,
        "router_stats": observed.router_stats,
    }


def overload_mismatches() -> List[str]:
    """The overload configs whose tallies differ from the golden."""
    return [
        config
        for config in sorted(GOLDEN["overload"])
        if overload_tallies(config) != GOLDEN["overload"][config]
    ]


def defense_mismatches(defense: str) -> List[str]:
    """The golden runs of one defense preset whose tallies differ."""
    mismatches = []
    for run, want in sorted(GOLDEN["defense"].items()):
        seed, preset, attack = run.split("/")
        if preset == defense and defense_tallies(preset, attack, int(seed)) != want:
            mismatches.append(run)
    return mismatches


@pytest.mark.parametrize("config", sorted(GOLDEN["overload"]))
def test_overload_run_is_bit_identical(config):
    assert overload_tallies(config) == GOLDEN["overload"][config]


@pytest.mark.parametrize("run", sorted(GOLDEN["defense"]))
def test_defense_run_is_bit_identical(run):
    seed, defense, attack = run.split("/")
    got = defense_tallies(defense, attack, int(seed))
    want = GOLDEN["defense"][run]
    for key, value in want.items():
        assert got[key] == value, f"{run}: {key}"
    assert set(got) == set(want), run
