"""A rebound program is a fresh build, bit for bit.

:meth:`CompiledTopology.rebind` binds a seed, a scheme spec and a caching
strategy to a compiled shape.  The oracle here is the path the rebind
replaces: build the topology with those settings, compile it and run it
(:func:`compile_topology` + :func:`run_compiled`).  The differential
covers every registry topology × every sweep scheme × every sweep
strategy at two seeds, with LRU and with random replacement, each point
rebound from one shared shape per (topology, seed, policy) — so a rebind
that leaks state from the shape or from an earlier point (a stream, a
verdict, a scheme) shows on a later point.

:func:`rebind_mismatches` is the small version the mutants in
``tests/validation/test_mutants.py`` must fail.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

from repro.analysis.placement import SWEEP_SCHEMES, SWEEP_STRATEGIES
from repro.attacks.timing import probe_attack_campaign
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.ndn.strategy import RANDOMIZED_STRATEGIES, LcdStrategy
from repro.ndn.topology import TOPOLOGIES
from repro.perf.parallel import build_scheme
from repro.sim.batch import (
    BatchCompileError,
    NetworkSpentError,
    compile_topology,
    diff_observables,
    run_compiled,
)
from repro.sim.batch.compile import DELAY_FIXED

SEEDS = (1043, 7)
CAPACITY = 8


def _campaign(topo):
    """The placement sweep's probe campaign (10 hot, 10 cold, private)."""
    prefix = str(topo.content_prefix)
    hot = [f"{prefix}/private/hot-{i}" for i in range(10)]
    cold = [f"{prefix}/private/cold-{i}" for i in range(10)]
    _, scripts = probe_attack_campaign(
        topo, hot, cold, f"{prefix}/ref", 1200.0, private=True
    )
    return scripts


def _template(topology: str, seed: int, policy: str = "lru"):
    """A topology with no scheme and no caching strategy, its campaign,
    and the program compiled from it."""
    topo = TOPOLOGIES[topology](seed=seed, cache_capacity=CAPACITY, policy=policy)
    scripts = _campaign(topo)
    return topo, scripts, compile_topology(topo.network, scripts)


def _fresh(topology, seed, scheme, strategy, policy="lru"):
    """The oracle: build with the point's settings, compile, run."""
    topo = TOPOLOGIES[topology](
        seed=seed,
        scheme=build_scheme(scheme, seed=seed * 31 + 1),
        cache_capacity=CAPACITY,
        caching=strategy,
        policy=policy,
    )
    return run_compiled(compile_topology(topo.network, _campaign(topo)))


def _rebound(topo, program, seed, scheme, strategy):
    return program.rebind(
        seed, build_scheme(scheme, seed=seed * 31 + 1), strategy, probe=topo.router.name
    )


def rebind_mismatches(
    topology: str = "fat_tree",
    seeds: Sequence[int] = (1043,),
    pairs: Sequence[Tuple[str, str]] = (("uniform", "lcd"), ("uniform", "probcache")),
    policy: str = "lru",
) -> List[str]:
    """Every way the rebound points of one shape per seed differ from
    fresh builds (a rebind the compiler refuses counts as one)."""
    mismatches: List[str] = []
    for seed in seeds:
        topo, _, program = _template(topology, seed, policy)
        for scheme, strategy in pairs:
            cell = f"{topology}/{policy}/seed{seed}/{scheme}/{strategy}"
            try:
                rebound = run_compiled(_rebound(topo, program, seed, scheme, strategy))
            except BatchCompileError as refused:
                mismatches.append(f"{cell}: rebind refused: {refused}")
                continue
            oracle = _fresh(topology, seed, scheme, strategy, policy)
            mismatches += [f"{cell}: {d}" for d in diff_observables(oracle, rebound)]
    return mismatches


PAIRS = [(scheme, strategy) for scheme in SWEEP_SCHEMES for strategy in SWEEP_STRATEGIES]


@pytest.mark.parametrize("policy", ["lru", "random"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_rebound_points_equal_fresh_builds(topology, policy):
    assert rebind_mismatches(topology, SEEDS, PAIRS, policy) == []


def test_the_small_differential_is_green():
    assert rebind_mismatches() == []


def test_a_rebound_program_runs_once():
    topo, _, program = _template("fat_tree", 1043)
    rebound = _rebound(topo, program, 1043, "uniform", "lce")
    run_compiled(rebound)
    with pytest.raises(NetworkSpentError, match="already ran"):
        run_compiled(rebound)
    # The shape's own program and the template network are untouched.
    assert not program.spent and not topo.network._spent_on_batch
    run_compiled(_rebound(topo, program, 1043, "uniform", "lce"))
    run_compiled(program)
    with pytest.raises(NetworkSpentError):
        run_compiled(program)


@pytest.mark.parametrize("strategy", ["lce", "probcache"])
@pytest.mark.parametrize("topology", ["fig3a_lan", "fat_tree", "rocketfuel", "geant"])
def test_a_rebound_run_builds_only_the_generators_it_draws(topology, strategy):
    """The rebind's registry ends up holding exactly the link streams of
    jittery links that carried a packet, the caching streams of
    randomized routers that took an admission decision and the policy
    streams of routers that evicted, each moved off its initial state."""
    topo, _, program = _template(topology, 1043, policy="random")
    rebound = _rebound(topo, program, 1043, "uniform", strategy)
    observed = run_compiled(rebound)
    shape = rebound.shape
    expected = {
        f"link:{link.name}"
        for link in shape.links
        if observed.link_packets[link.name] and link.delay_kind != DELAY_FIXED
    }
    for router in shape.routers:
        counters = observed.router_counters[router.name]
        if strategy in RANDOMIZED_STRATEGIES and (
            counters.get("cs_insert", 0) + counters.get("cache_declined", 0)
        ):
            expected.add(f"caching:{router.name}")
        if observed.router_stats[router.name]["cs_evictions"]:
            expected.add(f"policy:{router.name}")
    registry = rebound.rng
    assert set(registry.stream_names) == expected
    assert expected, "the point drew from no stream"
    for name in expected:
        initial = registry.fork(name).bit_generator.state
        assert registry.stream(name).bit_generator.state != initial, name


def test_a_factory_is_called_once_per_router_in_creation_order():
    topo, _, program = _template("tree", 3)
    seen: List[int] = []

    def factory():
        seen.append(len(seen))
        return NoPrivacyScheme()

    program.rebind(3, factory, "lce", probe=topo.router.name)
    assert seen == list(range(len(program.shape.routers)))


class TestRefusals:
    """The rebind lowers with the compiler's code, refusals included."""

    def test_a_shared_scheme_instance(self):
        topo, _, program = _template("fat_tree", 3)
        shared = NoPrivacyScheme()
        with pytest.raises(BatchCompileError, match="scheme instance shared"):
            program.rebind(3, lambda: shared, "lce", probe=topo.router.name)

    def test_a_shared_scheme_generator(self):
        topo, _, program = _template("fat_tree", 3)
        rng = build_scheme("uniform", seed=5).rng

        def factory():
            scheme = build_scheme("uniform", seed=5)
            scheme.rng = rng
            return scheme

        with pytest.raises(BatchCompileError, match="share one random generator"):
            program.rebind(3, factory, "lce", probe=topo.router.name)

    def test_an_unsupported_strategy_type(self):
        class Custom(LcdStrategy):
            kind = "lcd-custom"

        topo, _, program = _template("fig3a_lan", 3)
        with pytest.raises(BatchCompileError, match="unsupported caching strategy"):
            program.rebind(3, None, Custom(), probe=topo.router.name)
