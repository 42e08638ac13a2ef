"""The probe experiments ride the batch kernel with unchanged results.

``golden_probe_campaigns.json`` holds the 72-point placement grid
(``fig3a_lan``, ``fat_tree``, ``rocketfuel`` and ``geant`` × three
schemes × six strategies) at two (trials, seed) settings, the four
Figure 3 panels at two seeds, and ``attack_accuracy`` on two topologies.
All but the (1 trial, seed 0) grid were recorded at the commit *before*
the campaigns became consumer scripts (hand-written generator processes
on the reference engine); that grid was recorded before the placement
sweep started compiling one shape per (topology, trial) and rebinding it
per point.  Every field must still be bit-equal, and every point and
panel must report the batch kernel.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.experiments import run_fig3
from repro.analysis.placement import SWEEP_TOPOLOGIES, run_placement_sweep
from repro.attacks.timing import attack_accuracy, collect_rtt_distributions
from repro.ndn.topology import local_lan, wan

GOLDEN = json.loads(
    Path(__file__).with_name("golden_probe_campaigns.json").read_text("utf-8")
)


@pytest.mark.parametrize(
    "block", GOLDEN["placement"], ids=lambda b: f"trials{b['trials']}-seed{b['seed']}"
)
def test_placement_grid_is_bit_identical_and_all_batch(block):
    frontier = run_placement_sweep(
        topologies=tuple(SWEEP_TOPOLOGIES),
        trials=block["trials"],
        targets_per_trial=block["targets_per_trial"],
        seed=block["seed"],
    )
    points = [asdict(point) for point in frontier.points]
    assert len(points) == 72
    assert {point.pop("engine") for point in points} == {"batch"}
    assert points == block["points"]


@pytest.mark.parametrize(
    "panel", GOLDEN["fig3"], ids=lambda p: f"{p['setting']}-seed{p['seed']}"
)
def test_fig3_panel_is_bit_identical_and_batch(panel):
    result = run_fig3(
        panel["setting"],
        objects_per_trial=panel["objects_per_trial"],
        trials=panel["trials"],
        seed=panel["seed"],
    )
    assert result.engine == "batch"
    assert result.distributions.hit_rtts == panel["hit_rtts"]
    assert result.distributions.miss_rtts == panel["miss_rtts"]
    assert result.bayes_success == panel["bayes_success"]


@pytest.mark.parametrize(
    "case", GOLDEN["attack_accuracy"], ids=lambda c: c["topology"]
)
def test_attack_accuracy_is_bit_identical(case):
    builder = {"local_lan": local_lan, "wan": wan}[case["topology"]]
    accuracy = attack_accuracy(
        builder,
        targets_per_trial=case["targets_per_trial"],
        trials=case["trials"],
        base_seed=case["base_seed"],
    )
    assert accuracy == case["accuracy"]


def test_arbitrary_cache_filter_falls_back_transparently():
    def filtered_lan(seed):
        topo = local_lan(seed=seed)
        # Admits everything, so the run must equal the unfiltered one —
        # but the compiler cannot know that without calling it.
        topo.router.cache_filter = lambda data: True
        return topo

    lowered = collect_rtt_distributions(local_lan, objects_per_trial=6, trials=2)
    fell_back = collect_rtt_distributions(
        filtered_lan, objects_per_trial=6, trials=2
    )
    assert lowered.engine == "batch"
    assert fell_back.engine.startswith("reference: ")
    assert "never_cache" in fell_back.engine
    assert fell_back.hit_rtts == lowered.hit_rtts
    assert fell_back.miss_rtts == lowered.miss_rtts
