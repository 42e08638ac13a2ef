"""Committed artifacts are exactly what their command writes today.

``strategy_frontier.json`` is the output of ``repro-experiments
strategy`` at its defaults; regenerating it here, field for field, is
what keeps the committed copy from going stale.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.placement import run_placement_sweep

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_strategy_frontier_artifact_is_current():
    committed = json.loads(
        (REPO_ROOT / "strategy_frontier.json").read_text(encoding="utf-8")
    )
    frontier = run_placement_sweep(
        topologies=("fig3a_lan", "fat_tree"), trials=2, targets_per_trial=20
    )
    assert committed == frontier.to_dict()
    assert all(point["engine"] == "batch" for point in committed["points"])
