"""The placement frontier stays bit-identical to a recorded golden.

``golden_placement_frontier.json`` holds every :class:`PlacementPoint`
field of ``run_placement_sweep`` over ``fig3a_lan``, ``fat_tree``,
``rocketfuel`` and ``geant`` × the three sweep schemes × the six
strategies, at the perf ledger's grid (one trial, 20 targets), for seeds
0 and 1.  It was recorded before the sweep started compiling one shape
per (topology, trial) and rebinding it per point, so a rebind that
drifts from a fresh build and compile (a stream, a scheme placement, a
CL4M verdict, the hop-count flag) shows here as a named field of a named
point — on the two scale graphs ``strategy_frontier.json`` does not
cover as well.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.placement import run_placement_sweep

GOLDEN = json.loads(
    Path(__file__).with_name("golden_placement_frontier.json").read_text("utf-8")
)


@pytest.mark.parametrize("block", GOLDEN["sweeps"], ids=lambda b: f"seed{b['seed']}")
def test_placement_frontier_is_bit_identical(block):
    frontier = run_placement_sweep(
        topologies=tuple(GOLDEN["topologies"]),
        schemes=tuple(GOLDEN["schemes"]),
        strategies=tuple(GOLDEN["strategies"]),
        trials=GOLDEN["trials"],
        targets_per_trial=GOLDEN["targets_per_trial"],
        seed=block["seed"],
    )
    points = [asdict(point) for point in frontier.points]
    assert len(points) == len(block["points"]) == 72
    for got, want in zip(points, block["points"]):
        cell = f"{want['topology']}/{want['scheme']}/{want['strategy']}"
        for field, value in want.items():
            assert got[field] == value, f"{cell}: {field}"
        assert set(got) == set(want), cell
