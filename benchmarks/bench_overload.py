"""Overload benchmark — bounded forwarding vs interest flooding.

Pits an interest flood (distinct never-answered names, PIT exhaustion)
and a cache-pollution attack against two router configurations:

* the **unbounded baseline** the paper assumes — the flood drives the
  PIT to ~``lifetime / interval`` dangling entries,
* the **hardened** configuration — a capacity-bounded PIT
  (evict-oldest-expiry), per-face token-bucket admission control, and
  Nack-based congestion pushback into the consumers' retry loops.

Shape targets: the flood pushes the baseline PIT past 10x the bounded
capacity, while the hardened router keeps legitimate delivery >= 0.9 and
holds its PIT at the cap.  Every scenario runs under the
:class:`~repro.validation.InvariantChecker` (conservation laws A-D must
hold throughout), and the fast-replay kernel must stay bit-identical to
the oracle across the fig5-style scheme grid.

The router configurations are :data:`repro.validation.OVERLOAD_CONFIGS`,
the same four ``repro-experiments validate`` audits, at the scenario's
default scale (200 legitimate fetches, one flood interest every 2 ms).
"""

from __future__ import annotations

from repro.attacks.classifier import ThresholdClassifier
from repro.faults.retry import RetryPolicy
from repro.ndn.topology import local_lan
from repro.sim.process import Timeout
from repro.validation import (
    OVERLOAD_CONFIGS,
    InvariantChecker,
    run_overload_scenario,
    validate_differential,
)
from repro.validation.differential import small_validation_trace
from repro.validation.scenario import OVERLOAD_PIT_CAPACITY

#: Trace length of the oracle-vs-fast differential.
DIFFERENTIAL_REQUESTS = 2000


def _scenario(config):
    return run_overload_scenario(**OVERLOAD_CONFIGS[config])


# ----------------------------------------------------------------------
# Flood: unbounded baseline vs hardened router
# ----------------------------------------------------------------------
def test_flood_bounded_vs_unbounded(benchmark):
    def run():
        return {
            config: _scenario(config)
            for config in ("unbounded-baseline", "bounded-evict", "bounded-drop-new")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, res in results.items():
        print(
            f"  [{name:>16}] delivery={res.delivery_rate:.3f} "
            f"peak_pit={res.peak_pit_size} "
            f"nacks_out={int(res.router_summary['nack_out'])} "
            f"rate_limited={int(res.router_summary['rate_limited'])}"
        )

    # The invariant checker ran and found nothing, in every scenario.
    for name, res in results.items():
        assert res.checker.checks_run > 0, name
        res.checker.assert_ok()

    baseline, bounded = results["unbounded-baseline"], results["bounded-evict"]
    # The flood drives the unbounded PIT past 10x the bounded capacity...
    assert baseline.peak_pit_size > 10 * OVERLOAD_PIT_CAPACITY
    # ...while the bounded table never exceeds its cap.
    assert bounded.peak_pit_size <= OVERLOAD_PIT_CAPACITY
    assert results["bounded-drop-new"].peak_pit_size <= OVERLOAD_PIT_CAPACITY
    # The hardened router sustains legitimate delivery through the attack.
    assert bounded.delivery_rate >= 0.9
    # Congestion was signaled, not silently swallowed.
    assert bounded.router_summary["nack_out"] > 0


# ----------------------------------------------------------------------
# Cache pollution riding on the flood
# ----------------------------------------------------------------------
def test_pollution_churns_but_delivery_holds(benchmark):
    def run():
        return {
            "flood-only": _scenario("bounded-evict"),
            "flood+pollution": _scenario("bounded-polluted"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, res in results.items():
        print(
            f"  [{name:>16}] delivery={res.delivery_rate:.3f} "
            f"cs_evictions={int(res.router_summary['cs_evictions'])}"
        )

    for name, res in results.items():
        res.checker.assert_ok()
    clean, polluted = results["flood-only"], results["flood+pollution"]
    # Pollution visibly churns the CS...
    assert (
        polluted.router_summary["cs_evictions"]
        > clean.router_summary["cs_evictions"]
    )
    # ...but retransmission keeps legitimate delivery acceptable.
    assert polluted.delivery_rate >= 0.9


# ----------------------------------------------------------------------
# Invariants hold on the fig3-style attack topology too
# ----------------------------------------------------------------------
def test_invariants_on_attack_topology(benchmark):
    def run():
        topo = local_lan(seed=11)
        checker = InvariantChecker()
        retry = RetryPolicy(retries=3, timeout=80.0, backoff=2.0)
        prefix = str(topo.content_prefix)
        verdicts = []

        def user_proc():
            for i in range(16):
                result = yield from topo.user.fetch(
                    f"{prefix}/inv-hot-{i}", retry=retry
                )
                assert result is not None
                yield Timeout(2.0)

        def adversary_proc():
            yield Timeout(200.0)
            ref_rtts = []
            yield from topo.adversary.fetch(f"{prefix}/inv-ref", retry=retry)
            for _ in range(5):
                result = yield from topo.adversary.fetch(
                    f"{prefix}/inv-ref", retry=retry
                )
                if result is not None:
                    ref_rtts.append(result.rtt)
                yield Timeout(5.0)
            classifier = ThresholdClassifier.from_reference(ref_rtts)
            for i in range(16):
                result = yield from topo.adversary.fetch(
                    f"{prefix}/inv-hot-{i}", retry=retry
                )
                if result is not None:
                    verdicts.append(classifier.is_hit(result.rtt))
                yield Timeout(5.0)

        topo.engine.spawn(user_proc(), label="user")
        topo.engine.spawn(adversary_proc(), label="adv")
        checker.install(topo.network, interval=100.0, horizon=2000.0)
        topo.engine.run()
        checker.check_network(topo.network)
        return checker, verdicts

    (checker, verdicts) = benchmark.pedantic(run, rounds=1, iterations=1)
    assert checker.checks_run > 0
    checker.assert_ok()
    # The probe attack still works on the clean LAN (sanity anchor).
    assert sum(verdicts) >= 0.9 * len(verdicts)


# ----------------------------------------------------------------------
# Differential: fast kernel bit-identical to the oracle
# ----------------------------------------------------------------------
def test_differential_parity(benchmark):
    trace = small_validation_trace(requests=DIFFERENTIAL_REQUESTS, seed=3)

    def run():
        return validate_differential(trace=trace, seed=3)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("  " + report.summary().replace("\n", "\n  "))
    assert report.ok, report.summary()
