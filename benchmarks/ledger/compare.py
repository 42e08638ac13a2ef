"""``compare A.json B.json`` — do two sets of runs agree within the bounds?

Per workload × end-to-end metric: both medians, how much worse B reads
than A, the bound from ``BENCHMARK.json``, and a verdict:

* ``ok`` — B is no worse than A by more than the bound,
* ``worse`` — it is,
* ``unresolved`` — the spread (interquartile range ÷ median, over a
  file's runs, or over one run's rounds when the file holds a single
  run) is wider than the bound, so the difference cannot be read —
  unless every run of B reads better than every run of A.

Any failed operation B has beyond A's share is ``worse``; for equal
seeds, exact-count layer metrics must match exactly.  Exits non-zero on
``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from benchmarks.ledger import harness

#: ``setup_s`` may move by its bound or by this much, whichever is larger.
SETUP_SLACK_S = 0.5
#: Layer metrics that repeat exactly for one seed, besides every ``count``.
EXACT_PREFIXES = ("attacks.timing.probe_accuracy.",)


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def _verdict(a: dict, b: dict, declared: dict) -> Tuple[float, float, str]:
    """``(how much worse B is, as a share of A; the bound; verdict)``."""
    sign = 1.0 if declared["better"] == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    bound = declared["bound"]
    if declared["name"] == "setup_s":
        bound = max(bound, SETUP_SLACK_S / a["value"])
    if max(_spread(a), _spread(b)) > bound:
        runs_a, runs_b = a.get("runs"), b.get("runs")
        separated = bool(runs_a and runs_b) and (
            max(runs_b) < min(runs_a) if sign > 0 else min(runs_b) > max(runs_a)
        )
        return worse_by, bound, "ok" if separated else "unresolved"
    return worse_by, bound, "worse" if worse_by > bound else "ok"


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], int, int]:
    """Returns ``(report lines, worse count, unresolved count)``."""
    lines = [
        f"A: rev {a['git_rev'] or '?'} seed {a['seed']} runs {a.get('runs', 1)}"
        f"   B: rev {b['git_rev'] or '?'} seed {b['seed']} runs {b.get('runs', 1)}"
    ]
    if not (a["comparable"] and b["comparable"]):
        lines.append("note: a --quick result is not comparable; verdicts are indicative only")
    worse = unresolved = 0
    same_inputs = (a["seed"], a["comparable"]) == (b["seed"], b["comparable"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        lines.append(f"\n{workload}")
        status = "ok" if wb["failed_share"] <= wa["failed_share"] else "worse"
        worse += status == "worse"
        lines.append(
            f"  {'failed_share':<26}{wa['failed_share']:>14.6g}{wb['failed_share']:>14.6g}"
            f"{'':>20}{status:>12}"
        )
        for declared in spec["end_to_end"]:
            name = declared["name"]
            if name not in wa["end_to_end"] or name not in wb["end_to_end"]:
                continue
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            worse_by, bound, status = _verdict(ma, mb, declared)
            worse += status == "worse"
            unresolved += status == "unresolved"
            lines.append(
                f"  {name:<26}{ma['value']:>14.6g}{mb['value']:>14.6g}"
                f"{worse_by:>+10.1%} /{bound:>7.1%}{status:>12}  {declared['unit']}"
            )
        if not same_inputs:
            continue
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for name in la.keys() & lb.keys():
            if units[name] != "count" and not name.startswith(EXACT_PREFIXES):
                continue
            if la[name]["value"] != lb[name]["value"]:
                worse += 1
                lines.append(
                    f"  {name}: exact count differs for one seed: "
                    f"{la[name]['value']} != {lb[name]['value']}  worse"
                )
    lines.append(f"\n{worse} worse, {unresolved} unresolved")
    return lines, worse, unresolved


def compare_main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.ledger.run compare A.json B.json", file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    lines, worse, _ = compare(files[0], files[1], harness.load_spec())
    print("\n".join(lines))
    return 1 if worse else 0
