"""Self-test of the ledger (not part of tier-1; run it explicitly):

    PYTHONPATH=src python -m pytest benchmarks/ledger

A ``--quick`` pass of all five workloads (sizes / 20), then: declared
metric sets are the emitted ones, one seed repeats its exact counts,
another seed changes the inputs, ``compare`` flags a synthetic
regression just past a bound, a round's rates and times are rescaled by
the host's slowdown, and the one-line result has the contract's shape.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import harness, run, workloads
from benchmarks.ledger.compare import compare

RUN = str(Path(run.__file__).resolve())
SPEC = harness.load_spec()
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _ledger(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc


@pytest.fixture(scope="module")
def quick_pair(tmp_path_factory):
    """Two traced quick passes of every workload with one seed."""
    out = tmp_path_factory.mktemp("ledger")
    files = []
    for tag in "ab":
        path = out / f"{tag}.json"
        _ledger("--quick", "--trace", "--seed", "1", "--out", str(path))
        files.append(json.loads(path.read_text()))
    return files


def _exact_counts(result: dict) -> dict:
    return {
        (workload, name): metric["value"]
        for workload, entry in result["workloads"].items()
        for name, metric in entry["per_layer"].items()
        if UNITS[name] == "count"
    }


def test_declarations_match_benchmark_json():
    assert run.check_declarations(SPEC) == []
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_quick_pass_emits_exactly_the_declared_metrics(quick_pair):
    result = quick_pair[0]
    assert result["comparable"] is False
    for field in ("schema_version", "git_rev", "seed", "nproc", "python"):
        assert field in result
    assert list(result["workloads"]) == list(workloads.NAMES)
    for name, entry in result["workloads"].items():
        cls = workloads.load(name)
        assert entry["correct"], entry["broken_gates"]
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert set(entry["end_to_end"]) == set(
            harness.UNIVERSAL_END_TO_END + cls.end_to_end
        )
        assert set(entry["per_layer"]) == set(
            harness.UNIVERSAL_PER_LAYER + cls.per_layer
        )
        for metric in [*entry["end_to_end"].values(), *entry["per_layer"].values()]:
            assert {"value", "unit", "q1", "q3", "n_samples"} <= set(metric)
    # Both the fast path and the fallback are on the ledger.
    assert result["workloads"]["sim_packet"]["per_layer"]["sim.batch.fallback_share"]["value"] > 0


def test_one_seed_repeats_its_exact_counts(quick_pair):
    first, second = (_exact_counts(result) for result in quick_pair)
    assert first and first == second
    lines, _, _ = compare(quick_pair[0], quick_pair[1], SPEC)
    assert not any("exact count differs" in line for line in lines)


def test_another_seed_changes_the_inputs(quick_pair, tmp_path):
    path = tmp_path / "other.json"
    _ledger(
        "--workload", "replay_stream", "--quick", "--trace", "1", "--seed", "2",
        "--out", str(path),
    )  # fmt: skip
    other = json.loads(path.read_text())["per_layer"]
    same = quick_pair[0]["workloads"]["replay_stream"]["per_layer"]
    hits = "workload.fast_replay.hits.uniform_lru"
    assert other[hits]["value"] != same[hits]["value"]


def test_compare_flags_a_synthetic_regression(quick_pair, tmp_path, capsys):
    steady = copy.deepcopy(quick_pair[0])
    for entry in steady["workloads"].values():
        for metric in entry["end_to_end"].values():
            metric["q1"] = metric["q3"] = metric["value"]  # no spread
    slower = copy.deepcopy(steady)
    hit = slower["workloads"]["daemon_loopback"]["end_to_end"]["hit_interests_per_s"]
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "hit_interests_per_s")
    for key in ("value", "q1", "q3"):
        hit[key] *= 1.0 - (bound + 0.05)  # just past the bound

    _, worse, unresolved = compare(steady, steady, SPEC)
    assert (worse, unresolved) == (0, 0)
    lines, worse, unresolved = compare(steady, slower, SPEC)
    assert (worse, unresolved) == (1, 0)
    assert any("hit_interests_per_s" in line and "worse" in line for line in lines)

    noisy = copy.deepcopy(slower)
    hit = noisy["workloads"]["daemon_loopback"]["end_to_end"]["hit_interests_per_s"]
    hit["q1"], hit["q3"] = hit["value"] * (1 - bound), hit["value"] * (1 + bound)
    _, worse, unresolved = compare(steady, noisy, SPEC)
    assert (worse, unresolved) == (0, 1)

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(steady))
    b.write_text(json.dumps(slower))
    assert run.main(["compare", str(a), str(b)]) == 1
    assert run.main(["compare", str(a), str(a)]) == 0
    capsys.readouterr()


def test_a_round_is_rescaled_to_the_reference_host_speed():
    tracer = harness.Tracer("self-test", record=False)
    with tracer.span("group", group=True) as group:
        with tracer.span("work"):
            tracer.calibrate()
    assert group.calibration > 0 and group.net < group.wall
    out = harness.Samples(rate=[10.0])
    units = {"rate": "req/s", "time": "ms", "hits": "count", "share": "ratio"}

    def phase(tr, samples):
        for name, value in (("rate", 10.0), ("time", 2.0), ("hits", 5), ("share", 0.5)):
            samples.add(name, value)

    _, slowdown = harness._at_reference_speed(tracer, out, units, "round", phase)
    assert slowdown > 0
    assert out["rate"] == [10.0, 10.0 * slowdown]  # only what the phase added
    assert out["time"] == [2.0 / slowdown]
    assert out["hits"] == [5] and out["share"] == [0.5]


def test_one_line_result_has_the_contract_shape():
    proc = _ledger(
        "--workload", "sim_packet", "--quick", "--seed", "5", "--seconds", "1",
        "--trace", "0",
    )  # fmt: skip
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        Path(harness.__file__).parent,
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sim_packet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
