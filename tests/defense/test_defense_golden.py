"""The defense frontier stays bit-identical to a recorded golden.

``golden_defense_frontier.json`` holds every :class:`DefensePoint` field
of ``run_defense_sweep(defenses=("off", "adaptive"))`` over the three
attacks, at the perf ledger's ``frontier_sweep`` window (3 000 ms, the
attack from 20% to 70% of it), for seeds 0 and 1.  It was recorded
before the honest consumers' Zipf pick and the lazy RNG streams changed,
so any drift in the scenario's draws, the engine's event order or the
defense loop shows here as a named field of a named point.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.defense import run_defense_sweep

GOLDEN = json.loads(
    Path(__file__).with_name("golden_defense_frontier.json").read_text("utf-8")
)


@pytest.mark.parametrize("block", GOLDEN["sweeps"], ids=lambda b: f"seed{b['seed']}")
def test_defense_frontier_is_bit_identical(block):
    frontier = run_defense_sweep(
        defenses=tuple(GOLDEN["defenses"]),
        attacks=tuple(GOLDEN["attacks"]),
        seed=block["seed"],
        horizon=GOLDEN["horizon"],
        attack_start=GOLDEN["attack_start"],
        attack_end=GOLDEN["attack_end"],
    )
    points = [asdict(point) for point in frontier.points]
    assert len(points) == len(block["points"])
    for got, want in zip(points, block["points"]):
        cell = f"{want['defense']}/{want['attack']}"
        for field, value in want.items():
            assert got[field] == value, f"{cell}: {field}"
        assert set(got) == set(want), cell
