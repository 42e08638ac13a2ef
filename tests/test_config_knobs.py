"""Every field of the extension layers' config dataclasses has a caller.

A field counts as used when a call of its class outside the module that
defines it passes the field by keyword — directly, or through ``**name``
with ``name`` bound in that file to a ``dict(...)`` call or a dict
literal — in ``src/``, ``tests/``, ``benchmarks/`` or ``examples/``.  A
field that no caller sets is one value in use: make it a constant of its
module and delete the branches only other values took.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from repro.defense.agent import DefenseConfig
from repro.defense.scenario import DefenseScenarioSpec
from repro.deploy.chaos import ChaosConfig
from repro.deploy.daemon import DaemonConfig
from repro.deploy.scenario import GeoSpec, SoakSpec

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = (
    DaemonConfig, DefenseConfig, DefenseScenarioSpec, ChaosConfig, GeoSpec, SoakSpec
)
NAMES = {cls.__name__ for cls in CONFIGS}


def dict_keys(node: ast.AST) -> set:
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg is not None}
    if isinstance(node, ast.Dict):
        return {k.value for k in node.keys if isinstance(k, ast.Constant)}
    return set()


def passed_keywords(tree: ast.AST):
    """(class name, keyword) for every keyword a call of a class passes."""
    nodes = list(ast.walk(tree))
    bound: dict = {}
    for node in nodes:
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if isinstance(target, ast.Name):
                bound.setdefault(target.id, set()).update(dict_keys(node.value))
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for kw in node.keywords if callee in NAMES else ():
            if kw.arg is not None:
                yield callee, kw.arg
            elif isinstance(kw.value, ast.Name):
                yield from ((callee, key) for key in bound.get(kw.value.id, ()))


PASSED = {
    (path.resolve(), name, keyword)
    for top in ("src", "tests", "benchmarks", "examples")
    for path in (ROOT / top).rglob("*.py")
    if any(name in path.read_text() for name in NAMES)
    for name, keyword in passed_keywords(ast.parse(path.read_text()))
}


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_field_is_passed_outside_its_module(cls):
    home = Path(inspect.getsourcefile(cls)).resolve()
    passed = {kw for path, name, kw in PASSED if name == cls.__name__ and path != home}
    unset = [f.name for f in fields(cls) if f.name not in passed]
    assert unset == [], f"{cls.__name__} fields no caller sets: {unset}"
