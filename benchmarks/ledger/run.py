"""The ledger's one command.

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    runs one workload in this process and prints, as the last line of
    standard output, the one-line JSON result ``BENCHMARK.json``'s
    contract asks for.

``PYTHONPATH=src python -m benchmarks.ledger.run [--seed N] [--trace] [--runs R] [--out FILE]``
    runs all five, each run in a fresh subprocess, and writes one result
    file (and ``trace.json`` with ``--trace``).

``python -m benchmarks.ledger.run compare A.json B.json``
    compares two result files against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

_STARTED = perf_counter()
_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{_ROOT}: no src/repro here — the ledger measures that package")
for _path in (str(_ROOT / "src"), str(_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from benchmarks.ledger import harness, workloads  # noqa: E402
from benchmarks.ledger.compare import compare_main  # noqa: E402

#: Every run of every workload must end well inside the contract's 180 s.
CHILD_TIMEOUT_S = 170.0
#: What the one-line result carries for a metric the workload does not
#: exercise (every run must print every declared metric; see README).
NA_END_TO_END = 1.0
NA_PER_LAYER = 0.0


def _units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def check_declarations(spec: dict) -> List[str]:
    """Declared-vs-implemented: the workloads' metric names must be
    exactly the sets in ``BENCHMARK.json``."""
    problems = []
    declared_workloads = [w["name"] for w in spec["workloads"]]
    if sorted(declared_workloads) != sorted(workloads.NAMES):
        problems.append(f"workloads: {declared_workloads} != {list(workloads.NAMES)}")
    classes = [workloads.load(name) for name in workloads.NAMES]
    for key, universal in (
        ("end_to_end", harness.UNIVERSAL_END_TO_END),
        ("per_layer", harness.UNIVERSAL_PER_LAYER),
    ):
        declared = {m["name"] for m in spec[key]}
        emitted = set(universal)
        for cls in classes:
            emitted.update(getattr(cls, key))
        if declared != emitted:
            problems.append(
                f"{key}: declared only {sorted(declared - emitted)}, "
                f"emitted only {sorted(emitted - declared)}"
            )
    return problems


def contract_line(record: dict, spec: dict, trace: bool) -> str:
    """The one-line result: every declared metric of the kind, by name."""
    key = "per_layer" if trace else "end_to_end"
    missing = NA_PER_LAYER if trace else NA_END_TO_END
    measured = record[key]
    metrics = {
        m["name"]: {
            "value": measured[m["name"]]["value"] if m["name"] in measured else missing,
            "unit": m["unit"],
        }
        for m in spec[key]
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def run_one(args: argparse.Namespace, spec: dict) -> int:
    """One workload, in this process."""
    cls = workloads.load(args.workload)
    import_s = perf_counter() - _STARTED
    record, trace_dump = harness.run_workload(
        cls,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        import_s=import_s,
        units=_units(spec),
    )
    key = "per_layer" if args.trace else "end_to_end"
    harness.print_metrics(
        f"{cls.name} seed={args.seed} rounds={record['rounds']} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"host_slowdown={record['host_slowdown']['value']:.3f}",
        record[key],
    )
    for gate in record["broken_gates"]:
        print(f"  GATE BROKEN: {gate}")
    if trace_dump is not None:
        trace_file = Path(args.trace_file or harness.OUT_DIR / "trace.json")
        trace_file.write_text(json.dumps({"runs": [trace_dump]}) + "\n")
        print(f"  spans: {trace_file} (coverage {trace_dump['span_coverage']:.1%})")
    if args.out:
        Path(args.out).write_text(json.dumps(record) + "\n")
    print(contract_line(record, spec, bool(args.trace)))
    return 0 if record["correct"] else 1


def _spawn(args: argparse.Namespace, workload: str, trace: bool, tag: str) -> dict:
    """Run one workload in a fresh interpreter; returns its record."""
    record_file = harness.OUT_DIR / f"record-{tag}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--out", str(record_file),
        "--trace-file", str(harness.OUT_DIR / f"trace-{tag}.json"),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    proc = subprocess.run(command, timeout=CHILD_TIMEOUT_S)
    if not record_file.exists():
        raise RuntimeError(f"{workload}: run exited {proc.returncode} without a record")
    record = json.loads(record_file.read_text())
    record_file.unlink()
    return record


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """All five workloads, ``--runs`` times each, one subprocess per run."""
    from repro.perf.timing import git_rev

    problems = check_declarations(spec)
    for problem in problems:
        print(f"DECLARATION MISMATCH: {problem}")
    if problems:
        return 1
    harness.OUT_DIR.mkdir(exist_ok=True)
    result = harness.environment(args.seed, args.quick, args.seconds, git_rev())
    result["runs"] = args.runs
    result["workloads"] = {}
    traces = []
    correct = True
    for name in workloads.NAMES:
        runs = [_spawn(args, name, False, f"{name}-{i}") for i in range(args.runs)]
        entry = _merge_runs(runs)
        if args.trace:
            traced = _spawn(args, name, True, name)
            entry["per_layer"] = traced["per_layer"]
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["broken_gates"] += traced["broken_gates"]
            trace_file = harness.OUT_DIR / f"trace-{name}.json"
            traces.extend(json.loads(trace_file.read_text())["runs"])
            trace_file.unlink()
        correct = correct and entry["correct"]
        result["workloads"][name] = entry
    out = Path(args.out or harness.OUT_DIR / "ledger.json")
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nresult file: {out}")
    if args.trace:
        trace_out = harness.OUT_DIR / "trace.json"
        trace_out.write_text(json.dumps({"runs": traces}) + "\n")
        print(f"spans: {trace_out}")
    return 0 if correct else 1


def _merge_runs(runs: List[dict]) -> dict:
    """Fold a workload's runs into one entry: each end-to-end metric's
    value is the median of its per-run medians, ``runs`` keeps them all."""
    entry = dict(runs[0])
    entry["correct"] = all(run["correct"] for run in runs)
    entry["attempted"] = sum(run["attempted"] for run in runs)
    entry["failed"] = sum(run["failed"] for run in runs)
    entry["failed_share"] = entry["failed"] / max(1, entry["attempted"])
    entry["broken_gates"] = [g for run in runs for g in run["broken_gates"]]
    if len(runs) > 1:
        merged = {}
        for name, first in runs[0]["end_to_end"].items():
            values = [run["end_to_end"][name]["value"] for run in runs]
            merged[name] = {
                "unit": first["unit"],
                **harness.summarize(values),
                "runs": values,
            }
        entry["end_to_end"] = merged
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.run", description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload (all-workloads mode)")
    parser.add_argument("--quick", action="store_true", help="sizes / 20; output not comparable")
    parser.add_argument("--out", help="result file")
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = harness.load_spec()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
