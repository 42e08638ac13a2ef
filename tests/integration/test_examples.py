"""Every script under ``examples/`` runs to completion and still says
the one thing it exists to show."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: script -> (arguments, one line of its output that does not move)
EXAMPLES = {
    "quickstart.py": ((), "adversary accuracy: 10/10"),
    "attack_neighborhood.py": (
        (), "  -> a weak single probe becomes near-certain at 8 fragments"
    ),
    "bayesian_adversary.py": ((), "  MAP estimate: 3 (correct)"),
    "voip_privacy.py": (
        (),
        "Leaked frames: 0 (cached frames are invisible without the session secret)",
    ),
    "isp_cache_tuning.py": (
        ("--quick",),
        "Trace: 40,000 requests, 30,092 objects, 185 users; "
        "unlimited-cache ceiling 24.8%",
    ),
}


def test_every_example_is_listed():
    assert {path.name for path in (ROOT / "examples").glob("*.py")} == set(EXAMPLES)


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, tmp_path):
    arguments, stable_line = EXAMPLES[script]
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *arguments],
        env={
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "REPRO_TRACE_CACHE": str(tmp_path),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert stable_line in result.stdout.splitlines()
