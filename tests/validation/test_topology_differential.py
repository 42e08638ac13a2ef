"""Topology differential: reference engine vs batch kernel, whole grids."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.schemes.uniform import UniformRandomCache
from repro.ndn.errors import CacheError
from repro.ndn.replacement import RandomPolicy
from repro.ndn.topology import TOPOLOGIES
from repro.perf.parallel import build_scheme
from repro.perf.simcore import simcore_scripts
from repro.sim.batch import (
    ConsumerScript,
    FetchStep,
    SleepStep,
    diff_observables,
    run_scripts,
    run_scripts_batch,
    run_scripts_reference,
)
from repro.validation.differential import (
    TopologyCase,
    _build_topology_case,
    default_topology_cases,
    validate_topology_differential,
)

from tests.ndn.test_replacement import MUTANTS, apply_mutant
from tests.sim.test_batch_kernel import small_star
from tests.workload.test_fast_replay import NeverRevealingUniform


def test_default_grid_is_bit_identical():
    report = validate_topology_differential()
    assert report.ok, report.summary()
    assert report.failures == []
    # The grid covers the advertised surface: the sim-core shapes, the
    # Figure 3 panels (never_cache access routers included), the scale
    # graphs with the frontier's own probe campaign, the attack
    # harnesses' shapes, the privacy schemes next to no-privacy, every
    # replacement policy, and a sub-RTT timeout case.
    cases = [r.case for r in report.results]
    assert {c.topology for c in cases} == {
        "star", "tree", "fig3a_lan", "fig3c_wan_producer",
        "fig3d_local_host", "fat_tree", "rocketfuel",
        "defense_tree", "overload_star",
    }
    skipped = [
        sum(c.get("cache_skipped", 0) for c in r.batch.router_counters.values())
        for r in report.results
        if r.case.topology == "fig3c_wan_producer"
    ]
    assert skipped and all(skipped)
    assert {c.scheme for c in cases} >= {
        "no-privacy",
        "uniform",
        "exponential",
        "always-delay",
    }
    assert {c.policy for c in cases} == {"lru", "fifo", "lfu", "random"}
    # The grid exercises every caching strategy kind, plus one case that
    # must transparently fall back to the reference engine.
    assert {c.caching for c in cases} == {
        "lce", "lcd", "probcache", "edge", "cl4m", "bernoulli",
    }
    assert any(c.expect_fallback for c in cases)
    assert any(c.timeout < 10.0 for c in cases)
    for result in report.results:
        assert result.oracle.kernel == "reference"
        expected = "reference" if result.case.expect_fallback else "batch"
        assert result.batch.kernel == expected
        assert result.oracle.total_delivered > 0
    # Every router of the grid's tree guards with its own scheme instance
    # and both the routers and the producer have a service time.
    tree_case = next(c for c in cases if c.topology == "tree")
    net, _ = _build_topology_case(tree_case)
    routers = list(net.routers.values())
    assert len({id(r.scheme) for r in routers}) == len(routers) == 7
    scheme = type(build_scheme(tree_case.scheme, seed=0))
    assert all(type(r.scheme) is scheme for r in routers)
    assert all(r.processing_delay > 0 for r in routers)
    assert net["P"].processing_delay > 0
    # The sub-RTT budget yields a real mix of deliveries and timeouts.
    (sub_rtt,) = [r for r in report.results if r.case.timeout < 10.0]
    fetches = sum(len(s.steps) for s in _build_topology_case(sub_rtt.case)[1])
    assert 0.1 * fetches < sub_rtt.oracle.total_delivered < 0.9 * fetches


def test_overriding_scheme_subclass_rides_the_reference_engine():
    def build(cls):
        """The grid's tree, a fresh ``cls(K=4)`` on every router, every
        fetch private and caches large enough to be hit."""
        ordinal = itertools.count(1)
        topo = TOPOLOGIES["tree"](
            seed=0,
            scheme=lambda: cls(K=4, rng=np.random.default_rng(next(ordinal))),
            cache_capacity=16, processing_delay=0.2, producer_delay=0.4,
        )  # fmt: skip
        names = list(topo.network.consumers)
        scripts = simcore_scripts(names, 30, universe=4 * len(names), private_period=1)
        return topo.network, scripts

    base = run_scripts_batch(*build(UniformRandomCache))
    hiding = run_scripts(*build(NeverRevealingUniform), kernel="auto")
    assert diff_observables(run_scripts_reference(*build(UniformRandomCache)), base) == []
    assert diff_observables(run_scripts_reference(*build(NeverRevealingUniform)), hiding) == []
    assert hiding.kernel == "reference"
    assert "provides no kernel" in hiding.fallback_reason

    def total(observed, counter):
        return sum(c.get(counter, 0) for c in observed.router_counters.values())

    # The override shows: Algorithm 1 reveals after at most K requests.
    assert total(base, "cs_hit") > 0 and total(base, "cs_disguised_hit") > 0
    assert total(hiding, "cs_hit") == 0
    assert total(hiding, "cs_disguised_hit") > total(base, "cs_disguised_hit")


@pytest.mark.parametrize("scheme", ["uniform", "exponential"])
def test_batch_kernel_hands_each_scheme_generator_back_like_the_reference(scheme):
    """Kernels draw k_C in blocks and return the unused part: after a run
    every router's scheme generator is where the reference engine's
    scalar draws leave it."""
    case = TopologyCase(
        "tree", scheme, "random", caching="probcache",
        cache_capacity=16, private_period=2,
    )
    net, scripts = _build_topology_case(case)
    before = [r.scheme.rng.bit_generator.state for r in net.routers.values()]
    run_scripts_reference(net, scripts)
    expected = [r.scheme.rng.bit_generator.state for r in net.routers.values()]
    net, scripts = _build_topology_case(case)
    run_scripts_batch(net, scripts)
    assert [r.scheme.rng.bit_generator.state for r in net.routers.values()] == expected
    assert expected != before  # thresholds were drawn


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_grid_kills_each_replacement_mutant(mutant, monkeypatch):
    """The batch kernel evicts through the ``repro.ndn.replacement``
    mirrors, so a broken mirror must show against the reference engine:
    the grid's cases of its policy must flag it, and for LFU the
    ``tree/exponential/lfu`` case alone must."""
    kind = apply_mutant(monkeypatch, mutant)
    killed = []
    for case in default_topology_cases():
        if case.policy != kind or case.expect_fallback:
            continue
        try:
            report = validate_topology_differential(cases=[case])
        except IndexError:  # a victim scan that ran off the bucket list
            killed.append(case.label)
            continue
        if not report.ok:
            killed.append(case.label)
    assert killed
    if kind == "lfu":
        assert TopologyCase("tree", "exponential", "lfu").label in killed


def test_summary_reports_one_line_per_case():
    cases = default_topology_cases()
    report = validate_topology_differential(cases=cases[:2])
    lines = report.summary().splitlines()
    assert len(lines) == 2
    assert all(line.endswith(": ok") for line in lines)


def test_case_labels_are_unique():
    labels = [c.label for c in default_topology_cases()]
    assert len(labels) == len(set(labels))


def test_unknown_topology_rejected():
    with pytest.raises(ValueError, match="unknown topology"):
        validate_topology_differential(
            cases=[TopologyCase(topology="ring")]
        )


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_case_settings_reach_every_router(topology):
    """A case configures every field it names, on every registry
    topology — or fails to build; nothing is silently defaulted."""
    case = TopologyCase(
        topology, scheme="uniform", policy="random", caching="lcd",
        forwarding="multicast", cache_capacity=5,
    )
    net, _ = _build_topology_case(case)
    scheme = type(build_scheme("uniform", seed=0))
    schemes = set()
    for router in net.routers.values():
        assert type(router.cs.policy) is RandomPolicy
        assert router.strategy == "multicast"
        assert router.caching.kind == "lcd"
        assert type(router.scheme) is scheme
        schemes.add(id(router.scheme))
    assert len(schemes) == len(net.routers)
    assert TOPOLOGIES[topology](cache_capacity=5).router.cs.capacity == 5
    for field, bogus in (("policy", "mru"), ("forwarding", "anycast"),
                         ("caching", "everywhere"), ("scheme", "rot13")):
        with pytest.raises((ValueError, CacheError)):
            _build_topology_case(TopologyCase(topology, **{field: bogus}))
    with pytest.raises(TypeError):
        TOPOLOGIES[topology](no_such_shape_parameter=1)


# Fuzz: random fault/workload schedules — arbitrary interleavings of
# fetches (random object, privacy mark, sub-RTT or generous timeouts)
# and idle gaps must stay bit-identical between the engines, on jittered
# links and on the all-FixedDelay star where equal timestamps are common
# and only ``seq`` orders them.  ``diff_observables`` covers
# ``events_processed`` and ``end_time``, so a cancelled timer that fired,
# or a live one that was dropped, shows up as a mismatch.
step_st = st.one_of(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # object id
        st.booleans(),  # privacy mark
        # Wait budget: generous, two sub-RTT, and the fixed star's exact
        # hit (4 ms) and miss (6 ms) RTTs, where a timeout fires at the
        # timestamp of a delivery or of a sibling's cancelled timeout.
        st.sampled_from([4000.0, 3.0, 5.5, 4.0, 6.0]),
    ),
    st.floats(min_value=0.1, max_value=6.0),  # sleep gap
    # Gaps that outlast PIT entries and 4000-ms timeouts, so the queue
    # holds mostly far-future (and cancelled) entries in between.
    st.sampled_from([1500.0, 8000.0]),
)
program_st = st.lists(
    st.lists(step_st, min_size=1, max_size=12), min_size=1, max_size=3
)


def _scripts_from_program(program):
    scripts = []
    for j, steps in enumerate(program):
        compiled = []
        for step in steps:
            if isinstance(step, float):
                compiled.append(SleepStep(step))
            else:
                # An explicit example may add a fourth field, the lifetime.
                obj, private, timeout, *lifetime = step
                name = f"/content/obj-{obj}"
                compiled.append(FetchStep(name, timeout, *lifetime, private=private))
        scripts.append(ConsumerScript(consumer=f"C{j}", steps=tuple(compiled)))
    return scripts


@given(program_st, st.integers(min_value=0, max_value=5), st.booleans())
# Both consumers fetch obj-0 together (C1 collapses); then, at t = 6,
# C0's hit returns at 10 and its timer at 11.5 is cancelled, while C1's
# miss is still out when its own timer fires at 11.5.
@example(
    [[(0, False, 4000.0), (0, False, 5.5)], [(0, False, 4000.0), (1, False, 5.5)]],
    0,
    True,
)
# The batch kernel's timer lane holds a timer only if it sorts after the
# lane's tail.  C1's 3 ms timeout is armed after C0's 4 000 ms one, so it
# goes to the heap and must still fire first.
@example([[(0, False, 4000.0)], [(1, False, 3.0)]], 0, True)
# At 1 ms lifetimes the PIT entry at R (created at t = 2, data back at 4)
# expires first; C1's interest collapses at 2.5 and extends it to 3.5,
# so the expiry at 3 re-arms the timer for the remaining 0.5 ms.
@example([[(0, False, 4000.0, 1.0)], [0.5, (0, False, 4000.0, 1.0)]], 0, True)
@settings(max_examples=40, deadline=None)
def test_random_schedules_stay_bit_identical(program, seed, fixed_delays):
    def build():
        return small_star(
            seed=seed, consumers=len(program), capacity=3, fixed_delays=fixed_delays
        )[0]

    scripts = _scripts_from_program(program)
    if not any(
        isinstance(s, FetchStep) for sc in scripts for s in sc.steps
    ):
        return  # compile requires at least one fetch; nothing to compare
    oracle = run_scripts_reference(build(), scripts)
    batch = run_scripts_batch(build(), scripts)
    assert diff_observables(oracle, batch) == []
