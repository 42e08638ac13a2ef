"""Every ``src/repro`` module has a caller outside ``tests/``.

A module counts as used when a non-``__init__`` module of ``src/repro``,
a file under ``benchmarks/ledger`` or one under ``examples/`` imports it,
directly or through a package ``__init__`` re-export
(``from repro.deploy import run_geo_sim`` uses ``repro.deploy.scenario``).
The CLI is the entry point and needs no importer.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules only tests reach today.  The set may only shrink: give a module
#: a real caller, or delete it with its tests.
TEST_ONLY_MODULES = {
    # Two-sample KS and Mann-Whitney tests that no analysis runs yet.
    "repro.analysis.hypothesis_tests",
    # The counting attack on the naive k-threshold (DESIGN.md §1); no figure
    # or table reports it.
    "repro.attacks.counting",
    # Session detection; examples/voip_privacy.py is where it would show.
    "repro.attacks.session_detection",
    # The grouping ablation's correlation attack and the edge/core
    # hierarchy replay: EXPERIMENTS.md reports them, no command prints them.
    "repro.attacks.correlation",
    "repro.workload.hierarchy",
}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in (SRC / "repro").rglob("*.py")}
TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def reexports(package: str) -> dict:
    """name -> the module a package ``__init__`` imports it from."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(TREES[package])
        if isinstance(node, ast.ImportFrom) and node.module in MODULES
        for alias in node.names
    }


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                owner, name = node.module, alias.name
                while (
                    MODULES[owner].name == "__init__.py"
                    and f"{owner}.{name}" not in MODULES
                    and name in reexports(owner)
                ):
                    owner = reexports(owner)[name]
                yield f"{owner}.{name}" if f"{owner}.{name}" in MODULES else owner


def test_only_tests_reach_exactly_the_listed_modules():
    callers = [p for p in (SRC / "repro").rglob("*.py") if p.name != "__init__.py"]
    callers += [*(ROOT / "benchmarks" / "ledger").rglob("*.py")]
    callers += [*(ROOT / "examples").rglob("*.py")]
    used = set()
    for path in callers:
        used.update(imported_modules(ast.parse(path.read_text())))
    unreached = {
        name
        for name, path in MODULES.items()
        if path.name != "__init__.py" and name not in used and name != "repro.cli"
    }
    assert unreached == TEST_ONLY_MODULES
