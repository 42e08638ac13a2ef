"""Figure 5's numbers are pinned, not only its shapes.

``golden_fig5.json`` was recorded at the commit *before* privacy marking
moved from one hash pass per grid point to one per compiled trace: all
48 ``ReplayStats`` of ``run_fig5a`` (TSV store) and
``run_fig5b(sharded=True)`` (shard store) for
``IrcacheConfig(requests=20000)`` at two seeds.  Every count and every
float delay total must stay bit-equal, at any worker count.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.experiments import run_fig5a, run_fig5b
from repro.workload.ircache import IrcacheConfig

GOLDEN = json.loads(
    Path(__file__).with_name("golden_fig5.json").read_text("utf-8")
)


@pytest.mark.parametrize("workers", [1, 2], ids=lambda w: f"workers{w}")
@pytest.mark.parametrize("block", GOLDEN, ids=lambda b: f"seed{b['seed']}")
def test_fig5_grid_is_bit_identical(block, workers):
    seed = block["seed"]
    config = IrcacheConfig(requests=block["requests"], seed=seed)
    figures = {
        "fig5a": run_fig5a(config, seed=seed, workers=workers),
        "fig5b": run_fig5b(config, seed=seed, workers=workers, sharded=True),
    }
    for figure, result in figures.items():
        points = [
            {"series": series, "cache_size": size, **asdict(stats)}
            for (series, size), stats in result.stats.items()
        ]
        assert len(points) == 24
        assert points == block[figure], figure
