"""The script builders against their per-request oracles.

``simcore_scripts`` and ``scripts_from_workload`` share one
:class:`FetchStep` per distinct (name, private) pair and do the driver's
slot, gap and private-flag arithmetic per block on numpy columns.  The
oracles below are the per-request builders they replaced, restated
verbatim: one fresh step per request, every guard run per step.  The
scripts must agree step by step on type, name, timeout, lifetime,
private flag and delay, at every chunking of the workload, and the
sharing must be real.
"""

from __future__ import annotations

from math import inf, nan
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.ndn.topology import CONTENT_PREFIX, fat_tree
from repro.perf import simcore
from repro.perf.simcore import SIMCORE_PREFIX, build_star, build_tree
from repro.sim import workload_driver
from repro.sim.batch.script import ConsumerScript, FetchStep, ScriptError, SleepStep
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.streaming import Workload


def oracle_simcore_scripts(
    consumer_names: List[str],
    requests_per_consumer: int,
    universe: int,
    timeout: float = 4000.0,
    private_period: int = 0,
) -> List[ConsumerScript]:
    return [
        ConsumerScript(
            consumer=name,
            steps=tuple(
                FetchStep(
                    f"{SIMCORE_PREFIX}/obj-{(i * 3 + j) % universe}",
                    timeout=timeout,
                    private=private_period > 0 and (i + j) % private_period == 0,
                )
                for i in range(requests_per_consumer)
            ),
        )
        for j, name in enumerate(consumer_names)
    ]


def oracle_scripts_from_workload(
    workload: Workload,
    consumers: Sequence[str],
    *,
    uri_prefix: str = "",
    time_scale: float = 1.0,
    timeout: float = 4000.0,
    lifetime: float = 4000.0,
    private_period: int = 0,
    chunk_size: Optional[int] = None,
) -> List[ConsumerScript]:
    if not consumers:
        raise ValueError("need at least one consumer name")
    if time_scale <= 0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    fan_out = len(consumers)
    steps: List[List[object]] = [[] for _ in consumers]
    clocks = [0.0] * fan_out
    counts = [0] * fan_out
    uri_cache: Dict[int, str] = {}
    for block in workload.iter_blocks(chunk_size):
        times = block.times.tolist()
        users = block.users.tolist()
        keys = block.keys.tolist()
        for time, user, key in zip(times, users, keys):
            slot = user % fan_out
            uri = uri_cache.get(key)
            if uri is None:
                uri = uri_prefix + workload.uris_of(np.array([key]))[0]
                uri_cache[key] = uri
            at = time * time_scale
            gap = at - clocks[slot]
            if gap > 0:
                steps[slot].append(SleepStep(gap))
                clocks[slot] = at
            private = private_period > 0 and counts[slot] % private_period == 0
            counts[slot] += 1
            steps[slot].append(
                FetchStep(uri, timeout=timeout, lifetime=lifetime, private=private)
            )
    return [
        ConsumerScript(consumer=name, steps=tuple(step_list))
        for name, step_list in zip(consumers, steps)
    ]


def _fields(step) -> tuple:
    if isinstance(step, SleepStep):
        return (SleepStep, step.delay)
    return (FetchStep, step.name, step.timeout, step.lifetime, step.private)


def script_mismatches(
    oracle: List[ConsumerScript], built: List[ConsumerScript]
) -> List[str]:
    """Where ``built`` differs from ``oracle``, step by step, on type,
    name, timeout, lifetime, private flag and delay (empty if nowhere)."""
    if [s.consumer for s in oracle] != [s.consumer for s in built]:
        return ["consumers differ"]
    bad = []
    for want, got in zip(oracle, built):
        if len(want.steps) != len(got.steps):
            bad.append(f"{want.consumer}: {len(got.steps)} steps, want {len(want.steps)}")
            continue
        for pc, (a, b) in enumerate(zip(want.steps, got.steps)):
            if type(a) is not type(b) or _fields(a) != _fields(b):
                bad.append(f"{want.consumer} step {pc}: {b!r}, want {a!r}")
                break
    return bad


def shared_fetches(scripts: List[ConsumerScript]) -> tuple:
    """(distinct FetchStep objects, distinct (name, private) pairs)."""
    fetches = [
        step for s in scripts for step in s.steps if isinstance(step, FetchStep)
    ]
    return (
        len({id(step) for step in fetches}),
        len({(step.name, step.private) for step in fetches}),
    )


#: The perf ledger's ``sim_packet`` fat-tree case: its request count,
#: its Ircache config (``_fat_tree_workload``) and its driver arguments.
FAT_TREE_REQUESTS = 11_250
FAT_TREE_DRIVER = dict(uri_prefix=CONTENT_PREFIX, time_scale=1e-3, private_period=5)


def _fat_tree_hosts() -> List[str]:
    return list(fat_tree().network.consumers)


def _fat_tree_workload(requests: int = FAT_TREE_REQUESTS, seed: int = 0) -> Workload:
    config = IrcacheConfig(
        requests=requests, users=2000, objects=20_000, sites=200,
        session_locality=0.3, duration_hours=1.0, seed=seed,
    )  # fmt: skip
    return IrcacheGenerator(config).stream()


def builder_mismatches() -> List[str]:
    """Both builders on one private-marking case each, against their
    oracles (a builder that keys its memo without the private flag hands
    a public fetch the private step of the same name, or the reverse)."""
    net, names, universe = build_star(8)
    bad = script_mismatches(
        oracle_simcore_scripts(names, 40, universe, private_period=3),
        simcore.simcore_scripts(names, 40, universe, private_period=3),
    )
    workload = _fat_tree_workload(2_000)
    hosts = _fat_tree_hosts()
    return bad + script_mismatches(
        oracle_scripts_from_workload(workload, hosts, **FAT_TREE_DRIVER),
        workload_driver.scripts_from_workload(workload, hosts, **FAT_TREE_DRIVER),
    )


SHAPES = {"star": lambda: build_star(32), "tree": build_tree}


class TestSimcoreScripts:
    @pytest.mark.parametrize("private_period", [0, 3])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_equals_the_per_request_oracle(self, shape, private_period):
        _, names, universe = SHAPES[shape]()
        oracle = oracle_simcore_scripts(
            names, 120, universe, timeout=250.0, private_period=private_period
        )
        built = simcore.simcore_scripts(
            names, 120, universe, timeout=250.0, private_period=private_period
        )
        assert script_mismatches(oracle, built) == []
        objects, pairs = shared_fetches(built)
        assert objects == pairs
        # The star runs 32 consumers over 128 objects, so objects repeat
        # within and across scripts: sharing is not vacuous.
        assert objects < sum(len(s.steps) for s in built)

    def test_degenerate_sizes(self):
        names = ["C0", "C1"]
        for requests in (0, 1):
            assert simcore.simcore_scripts(names, requests, 4) == (
                oracle_simcore_scripts(names, requests, 4)
            )
        assert simcore.simcore_scripts([], 5, 4) == []

    @pytest.mark.parametrize("timeout", [nan, inf, 0.0, -1.0])
    def test_bad_timeout_raises_the_oracle_error(self, timeout):
        with pytest.raises(ScriptError) as want:
            oracle_simcore_scripts(["C0"], 3, 4, timeout=timeout)
        with pytest.raises(ScriptError) as got:
            simcore.simcore_scripts(["C0"], 3, 4, timeout=timeout)
        assert str(got.value) == str(want.value)


class TestScriptsFromWorkload:
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    def test_fat_tree_config_equals_the_oracle_at_any_chunking(self, chunk_size):
        workload = _fat_tree_workload()
        hosts = _fat_tree_hosts()
        oracle = oracle_scripts_from_workload(workload, hosts, **FAT_TREE_DRIVER)
        built = workload_driver.scripts_from_workload(
            workload, hosts, chunk_size=chunk_size, **FAT_TREE_DRIVER
        )
        assert script_mismatches(oracle, built) == []
        objects, pairs = shared_fetches(built)
        assert objects == pairs
        fetches = sum(isinstance(step, FetchStep) for s in built for step in s.steps)
        assert fetches == FAT_TREE_REQUESTS and objects < fetches

    @pytest.mark.parametrize("private_period", [0, 3])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_equal_the_oracle(self, shape, private_period):
        _, names, _ = SHAPES[shape]()
        workload = _fat_tree_workload(3_000, seed=4)
        kwargs = dict(
            uri_prefix=SIMCORE_PREFIX, time_scale=1e-3, timeout=900.0,
            lifetime=700.0, private_period=private_period,
        )  # fmt: skip
        oracle = oracle_scripts_from_workload(workload, names, **kwargs)
        built = workload_driver.scripts_from_workload(
            workload, names, chunk_size=64, **kwargs
        )
        assert script_mismatches(oracle, built) == []
        objects, pairs = shared_fetches(built)
        assert objects == pairs

    @pytest.mark.parametrize("field", ["timeout", "lifetime"])
    @pytest.mark.parametrize("value", [nan, inf, 0.0, -1.0])
    def test_bad_fetch_values_raise_the_oracle_error(self, field, value):
        workload = _fat_tree_workload(200)
        with pytest.raises(ScriptError) as want:
            oracle_scripts_from_workload(workload, ["C0", "C1"], **{field: value})
        with pytest.raises(ScriptError) as got:
            workload_driver.scripts_from_workload(workload, ["C0", "C1"], **{field: value})
        assert str(got.value) == str(want.value)


def test_builders_match_their_oracles():
    assert builder_mismatches() == []
