"""InvariantChecker: detects seeded violations, stays silent on clean runs."""

from __future__ import annotations

import pytest

from repro.attacks.classifier import ThresholdClassifier
from repro.faults.retry import RetryPolicy
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.ndn.topology import local_lan
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry
from repro.validation import InvariantChecker, InvariantError, Violation


def chain(seed=0, **router_kwargs):
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=4, **router_kwargs)
    net.add_consumer("c")
    net.add_producer("p", "/data")
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(3.0))
    net.add_route("R", "/data", "p")
    return net


def run_workload(net, count=12, gap=20.0):
    consumer = net["c"]

    def proc():
        for i in range(count):
            yield from consumer.fetch(f"/data/obj-{i % 6}")
            yield Timeout(gap)

    net.spawn(proc(), "workload")
    net.run()


class TestCleanRuns:
    def test_clean_network_has_zero_violations(self):
        net = chain()
        run_workload(net)
        checker = InvariantChecker()
        assert checker.check_network(net) == []
        assert checker.checks_run == 1
        checker.assert_ok()

    def test_bounded_router_stays_clean(self):
        net = chain(pit_capacity=2, pit_overflow="evict-oldest-expiry")
        run_workload(net)
        checker = InvariantChecker()
        checker.assert_ok(net)
        assert checker.checks_run == 1

    def test_probe_attack_on_the_lan_stays_clean(self):
        """The Figure 3 attack topology under periodic checks: a user
        fetches 16 objects, the adversary calibrates on a reference and
        probes them, all through retrying fetches."""
        topo = local_lan(seed=11)
        checker = InvariantChecker()
        retry = RetryPolicy(retries=3, timeout=80.0, backoff=2.0)
        hot = [f"{topo.content_prefix}/inv-hot-{i}" for i in range(16)]
        reference = f"{topo.content_prefix}/inv-ref"
        verdicts = []

        def user_proc():
            for name in hot:
                assert (yield from topo.user.fetch(name, retry=retry)) is not None
                yield Timeout(2.0)

        def adversary_proc():
            yield Timeout(200.0)
            ref_rtts = []
            yield from topo.adversary.fetch(reference, retry=retry)
            for _ in range(5):
                result = yield from topo.adversary.fetch(reference, retry=retry)
                if result is not None:
                    ref_rtts.append(result.rtt)
                yield Timeout(5.0)
            classifier = ThresholdClassifier.from_reference(ref_rtts)
            for name in hot:
                result = yield from topo.adversary.fetch(name, retry=retry)
                if result is not None:
                    verdicts.append(classifier.is_hit(result.rtt))
                yield Timeout(5.0)

        topo.engine.spawn(user_proc(), label="user")
        topo.engine.spawn(adversary_proc(), label="adv")
        checker.install(topo.network, interval=100.0, horizon=2000.0)
        topo.engine.run()
        checker.check_network(topo.network)
        assert checker.checks_run > 0
        checker.assert_ok()
        # The probe attack still works on the clean LAN (sanity anchor).
        assert sum(verdicts) >= 0.9 * len(verdicts)


class TestSeededViolations:
    def test_law_a_catches_unclassified_interest(self):
        net = chain()
        run_workload(net)
        net["R"].monitor.count("interest_in")  # one phantom ingress
        found = InvariantChecker().check_network(net)
        assert [v.law for v in found] == ["A:interest-conservation"]
        assert found[0].router == "R"

    def test_law_b_catches_leaked_pit_accounting(self):
        net = chain()
        run_workload(net)
        net["R"].monitor.count("pit_insert")
        found = InvariantChecker().check_network(net)
        assert [v.law for v in found] == [
            "A:interest-conservation",
            "B:pit-ledger",
        ]

    def test_law_c_catches_capacity_breach(self):
        net = chain()
        run_workload(net)
        router = net["R"]
        # Shrink the declared capacity below the observed peak.
        router.pit.capacity = 0.5
        found = InvariantChecker().check_network(net)
        assert any(v.law == "C:pit-capacity" for v in found)

    def test_law_c_catches_cs_overflow(self):
        net = chain()
        run_workload(net)
        net["R"].cs.capacity = 1
        found = InvariantChecker().check_network(net)
        assert [v.law for v in found] == ["C:cs-capacity"]

    def test_law_d_catches_unbalanced_cs_ledger(self):
        net = chain()
        run_workload(net)
        net["R"].cs.insertions += 1
        found = InvariantChecker().check_network(net)
        assert [v.law for v in found] == ["D:cs-ledger"]

    def test_assert_ok_raises_with_every_violation_listed(self):
        checker = InvariantChecker()
        checker.violations.append(Violation("R", "A:interest-conservation", "x"))
        checker.violations.append(Violation("S", "D:cs-ledger", "y"))
        with pytest.raises(InvariantError) as excinfo:
            checker.assert_ok()
        message = str(excinfo.value)
        assert "2 invariant violation(s)" in message
        assert "[R] A:interest-conservation" in message
        assert "[S] D:cs-ledger" in message
        assert excinfo.value.violations == checker.violations


class TestPeriodicInstall:
    def test_install_rejects_nonpositive_interval(self):
        net = chain()
        with pytest.raises(ValueError):
            InvariantChecker().install(net, interval=0.0, horizon=100.0)

    def test_scheduled_checks_run_during_the_simulation(self):
        net = chain()
        checker = InvariantChecker()
        scheduled = checker.install(net, interval=50.0, horizon=300.0)
        assert scheduled == 6
        run_workload(net)
        # One audit per scheduled slot (the single-router network).
        assert checker.checks_run == scheduled
        checker.assert_ok(net)

    def test_periodic_checks_observe_midrun_state(self):
        net = chain(pit_capacity=3, pit_overflow="drop-new")
        checker = InvariantChecker()
        checker.install(net, interval=25.0, horizon=400.0)
        run_workload(net)
        assert checker.checks_run > 0
        assert checker.violations == []
