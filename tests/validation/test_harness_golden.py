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

The ``consumers`` section pins every consumer's non-zero monitor
counters after each of those runs (``interests_sent``,
``data_received``, the Nack and retry counters of the fetch loop, the
unsolicited and stale arrivals): what the fetch loop did, which
:class:`~repro.sim.batch.script.TopologyObservables` does not carry.
Neither harness returns its network, so the runs go through a wrapper
around ``run_scripts_reference`` that reads the counters when it
returns.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple
from unittest import mock

import pytest

from repro.defense import scenario as defense_scenario
from repro.defense.scenario import DefenseScenarioSpec, run_defense_scenario
from repro.ndn.network import Network
from repro.sim.batch.script import run_scripts_reference
from repro.validation import scenario as overload_scenario
from repro.validation.scenario import OVERLOAD_CONFIGS, run_overload_scenario

GOLDEN = json.loads(
    Path(__file__).with_name("golden_harness_tallies.json").read_text("utf-8")
)


def consumer_counters(net: Network) -> Dict[str, Dict[str, int]]:
    """Every consumer's non-zero monitor counters, by consumer name."""
    return {
        name: {key: value for key, value in sorted(consumer.monitor.counters.items()) if value}
        for name, consumer in sorted(net.consumers.items())
    }


def _keeping_consumers(harness, *args, **kwargs) -> Tuple[object, dict]:
    """``harness(*args, **kwargs)`` and its network's consumer counters,
    read as the harness's ``run_scripts_reference`` returns."""
    seen = []

    def keeping(net, scripts):
        observed = run_scripts_reference(net, scripts)
        seen.append(consumer_counters(net))
        return observed

    with mock.patch.object(defense_scenario, "run_scripts_reference", keeping), \
            mock.patch.object(overload_scenario, "run_scripts_reference", keeping):
        result = harness(*args, **kwargs)
    (consumers,) = seen
    return result, consumers


def overload_tallies(config: str) -> Tuple[dict, dict]:
    """One overload config's tallies and consumer counters."""
    result, consumers = _keeping_consumers(
        run_overload_scenario, seed=GOLDEN["overload_seed"], **OVERLOAD_CONFIGS[config]
    )
    return {
        "events": result.events,
        "delivered": result.delivered,
        "attempted": result.attempted,
        "router_summary": dict(result.router_summary),
    }, consumers


def defense_tallies(defense: str, attack: str, seed: int) -> Tuple[dict, dict]:
    """One defense run's tallies and consumer counters."""
    window = GOLDEN["defense_window"]
    result, consumers = _keeping_consumers(
        run_defense_scenario,
        DefenseScenarioSpec(defense=defense, attack=attack, seed=seed, **window),
    )
    observed = result.observables
    return {
        "events": observed.events_processed,
        "requests": result.honest_requests,
        "delivered": result.honest_delivered,
        "edge_hit_rate": result.edge_hit_rate,
        "router_stats": observed.router_stats,
    }, consumers


def overload_mismatches() -> List[str]:
    """The overload configs whose tallies or consumer counters differ
    from the golden."""
    return [
        config
        for config in sorted(GOLDEN["overload"])
        if overload_tallies(config)
        != (GOLDEN["overload"][config], GOLDEN["consumers"]["overload"][config])
    ]


def defense_mismatches(defense: str) -> List[str]:
    """The golden runs of one defense preset whose tallies or consumer
    counters differ."""
    mismatches = []
    for run, want in sorted(GOLDEN["defense"].items()):
        seed, preset, attack = run.split("/")
        if preset == defense and defense_tallies(preset, attack, int(seed)) != (
            want, GOLDEN["consumers"]["defense"][run]
        ):
            mismatches.append(run)
    return mismatches


@pytest.mark.parametrize("config", sorted(GOLDEN["overload"]))
def test_overload_run_is_bit_identical(config):
    tallies, consumers = overload_tallies(config)
    assert tallies == GOLDEN["overload"][config]
    assert consumers == GOLDEN["consumers"]["overload"][config]


@pytest.mark.parametrize("run", sorted(GOLDEN["defense"]))
def test_defense_run_is_bit_identical(run):
    seed, defense, attack = run.split("/")
    got, consumers = defense_tallies(defense, attack, int(seed))
    want = GOLDEN["defense"][run]
    for key, value in want.items():
        assert got[key] == value, f"{run}: {key}"
    assert set(got) == set(want), run
    assert consumers == GOLDEN["consumers"]["defense"][run], run
