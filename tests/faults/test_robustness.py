"""Probe accuracy and delivery under loss, at EXPERIMENTS.md's scale.

The Section III cache-probe attack and a plain fetch workload run on a
clean network and with i.i.d. loss on one link.  The LAN attack stays
near-perfect on a clean network; loss only *hurts* the adversary
(retried probes read as misses); retransmission keeps delivery high.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.classifier import ThresholdClassifier
from repro.faults import RetryPolicy
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.ndn.topology import local_lan
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry
from repro.validation import InvariantChecker

#: Attack trials per scenario, probe targets per trial (half of them
#: prefetched by the user), fetches in the delivery workload.
FAULT_TRIALS = 3
FAULT_TARGETS = 24
FAULT_REQUESTS = 400

MEAN_LOSS = 0.05

RETRY = RetryPolicy(retries=5, timeout=60.0, backoff=2.0)


def lossy(network, link):
    network.links[link].loss_rate = MEAN_LOSS


#: name -> setup(topology) for the probe-accuracy scenarios.
ATTACK_SCENARIOS = {
    "baseline": lambda topo: None,
    "iid-loss": lambda topo: lossy(topo.network, "Adv<->R"),
}


#: name -> setup(network) for the delivery scenarios.
DELIVERY_SCENARIOS = {
    "baseline": lambda net: None,
    "iid-loss": lambda net: lossy(net, "c<->R"),
}


def fault_attack_accuracy(setup, base_seed=500):
    """``attack_accuracy`` with a fault setup and retrying fetches."""
    correct = total = 0
    for trial in range(FAULT_TRIALS):
        topo = local_lan(seed=base_seed + trial)
        setup(topo)
        prefix = str(topo.content_prefix)
        hot = [f"{prefix}/fault{trial}-hot-{i}" for i in range(FAULT_TARGETS // 2)]
        cold = [f"{prefix}/fault{trial}-cold-{i}" for i in range(FAULT_TARGETS // 2)]
        verdicts = []

        def user_proc():
            for name in hot:
                result = yield from topo.user.fetch(name, retry=RETRY)
                if result is None:
                    raise RuntimeError(f"user prefetch of {name} failed")
                yield Timeout(2.0)

        def adversary_proc():
            yield Timeout(500.0)
            adversary = topo.adversary
            reference = f"{prefix}/fault{trial}-ref"
            yield from adversary.fetch(reference, retry=RETRY)
            yield Timeout(5.0)
            ref_rtts = []
            for _ in range(5):
                result = yield from adversary.fetch(reference, retry=RETRY)
                if result is not None:
                    ref_rtts.append(result.rtt)
                yield Timeout(5.0)
            if len(ref_rtts) < 2:
                return  # reference unreachable: no verdicts this trial
            classifier = ThresholdClassifier.from_reference(ref_rtts)
            for target in hot + cold:
                result = yield from adversary.fetch(target, retry=RETRY)
                if result is not None:
                    verdicts.append((target, classifier.is_hit(result.rtt)))
                yield Timeout(5.0)

        topo.engine.spawn(user_proc(), label=f"user-{trial}")
        topo.engine.spawn(adversary_proc(), label=f"adv-{trial}")
        topo.engine.run()
        hot_set = set(hot)
        for target, decided_hit in verdicts:
            correct += int(decided_hit == (target in hot_set))
            total += 1
    return correct / total if total else 0.5


def run_delivery_scenario(setup, seed=7, objects=20, gap=10.0):
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=objects)
    net.add_consumer("c")
    net.add_producer("p", "/data")
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(3.0))
    net.add_route("R", "/data", "p")
    horizon = FAULT_REQUESTS * gap
    setup(net)
    outcomes = []
    latencies = []

    def proc():
        for i in range(FAULT_REQUESTS):
            started = net.engine.now
            result = yield from net["c"].fetch(f"/data/obj-{i % objects}", retry=RETRY)
            outcomes.append(result is not None)
            if result is not None:
                # Includes retransmission backoff — unlike the per-attempt
                # RTT the consumer records.
                latencies.append(net.engine.now - started)
            yield Timeout(gap)

    net.spawn(proc(), "workload")
    # Conservation laws A-D must hold throughout every scenario.
    checker = InvariantChecker()
    checker.install(net, interval=horizon / 20, horizon=horizon)
    net.run()
    checker.assert_ok(net)
    router = net["R"].monitor
    hits = router.counter("cs_hit")
    misses = router.counter("cs_miss")
    return {
        "delivered": sum(outcomes) / len(outcomes),
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "mean_latency": float(np.mean(latencies)) if latencies else float("nan"),
        "retransmits": net["c"].monitor.counter("fetch_retransmits"),
        "link_lost": net.links["c<->R"].packets_lost,
    }


def test_probe_accuracy_under_faults():
    accuracy = {
        name: fault_attack_accuracy(setup) for name, setup in ATTACK_SCENARIOS.items()
    }
    # Clean LAN: the paper's near-certain attack.
    assert accuracy["baseline"] > 0.9
    # Loss only hurts the adversary (inflated probe RTTs read as misses).
    assert accuracy["iid-loss"] <= accuracy["baseline"] + 0.05
    assert accuracy["iid-loss"] >= 0.6


def test_delivery_under_faults():
    stats = {
        name: run_delivery_scenario(setup)
        for name, setup in DELIVERY_SCENARIOS.items()
    }
    baseline = stats["baseline"]
    assert baseline["delivered"] == 1.0
    assert baseline["retransmits"] == 0
    row = stats["iid-loss"]
    # Retransmission keeps delivery high under loss.
    assert row["delivered"] >= 0.9
    assert row["retransmits"] > 0
    # Loss shows up in the loss counter, and costs latency.
    assert row["link_lost"] > 0
    assert row["mean_latency"] > baseline["mean_latency"]
