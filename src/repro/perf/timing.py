"""The commit stamp the perf ledger writes into its result files."""

from __future__ import annotations

import os
import subprocess


def git_rev() -> str:
    """Abbreviated git HEAD of the working tree, or ``""`` when the
    bench runs outside a checkout (or git is unavailable)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""
