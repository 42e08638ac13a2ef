"""Robustness benchmark — probe accuracy and delivery under faults.

Runs the Section III cache-probe attack and a plain fetch workload through
the :mod:`repro.faults` scenarios (i.i.d. loss, Gilbert–Elliott burst loss
at the same mean rate, random link flaps, router crash with CS flush) and
records how adversary accuracy, delivery ratio, hit rate and RTT degrade
relative to the fault-free baseline.

Shape targets: the LAN attack stays near-perfect on a clean network;
packet loss only *hurts* the adversary (retried probes read as misses);
a CS-flushing crash wipes the evidence and drags accuracy toward coin
flipping; retransmission keeps delivery high under every scenario.

Scale knobs: ``REPRO_BENCH_FAULT_TRIALS`` (attack trials per scenario,
default 3), ``REPRO_BENCH_FAULT_REQUESTS`` (fetches in the delivery
workload, default 400).
"""

from __future__ import annotations

import os

import numpy as np

from repro.attacks.classifier import ThresholdClassifier
from repro.faults import (
    FaultSchedule,
    GilbertElliottLoss,
    IidLoss,
    RetryPolicy,
    RouterCrash,
    random_link_flaps,
)
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.ndn.topology import local_lan
from repro.sim.process import Timeout
from repro.sim.rng import RngRegistry
from repro.validation import InvariantChecker

FAULT_TRIALS = int(os.environ.get("REPRO_BENCH_FAULT_TRIALS", 3))
#: Probe targets per attack trial.
FAULT_TARGETS = 24
FAULT_REQUESTS = int(os.environ.get("REPRO_BENCH_FAULT_REQUESTS", 400))

MEAN_LOSS = 0.05
BURST_LENGTH = 8.0

RETRY = RetryPolicy(retries=5, timeout=60.0, backoff=2.0)


# ----------------------------------------------------------------------
# Scenario definitions (shared by both benchmarks)
# ----------------------------------------------------------------------
def _lossy(network, links, model_factory):
    for link in links:
        network.links[link].push_loss_model(model_factory())


def attack_scenarios():
    """name -> setup(topology) for the probe-accuracy benchmark."""

    def iid(topo):
        _lossy(topo.network, ["Adv<->R"], lambda: IidLoss(MEAN_LOSS))

    def burst(topo):
        _lossy(
            topo.network,
            ["Adv<->R"],
            lambda: GilbertElliottLoss.for_mean_loss(MEAN_LOSS, BURST_LENGTH),
        )

    def crash(topo):
        topo.network.apply_faults(
            FaultSchedule(
                [RouterCrash("R", at=600.0, restart_at=610.0, mode="flush")]
            )
        )

    return {
        "baseline": lambda topo: None,
        "iid-loss": iid,
        "burst-loss": burst,
        "crash-flush": crash,
    }


def delivery_scenarios():
    """name -> setup(network, horizon) for the delivery benchmark."""

    def iid(net, horizon):
        _lossy(net, ["c<->R"], lambda: IidLoss(MEAN_LOSS))

    def burst(net, horizon):
        _lossy(
            net,
            ["c<->R"],
            lambda: GilbertElliottLoss.for_mean_loss(MEAN_LOSS, BURST_LENGTH),
        )

    def flaps(net, horizon):
        schedule = random_link_flaps(
            net.rng.fork("flaps"),
            ["c<->R", "R<->p"],
            horizon=horizon,
            mean_uptime=800.0,
            mean_downtime=80.0,
        )
        net.apply_faults(schedule)

    def crash(net, horizon):
        net.apply_faults(
            FaultSchedule(
                [
                    RouterCrash(
                        "R",
                        at=horizon / 2,
                        restart_at=horizon / 2 + 100.0,
                        mode="flush",
                    )
                ]
            )
        )

    return {
        "baseline": lambda net, horizon: None,
        "iid-loss": iid,
        "burst-loss": burst,
        "link-flaps": flaps,
        "crash-flush": crash,
    }


# ----------------------------------------------------------------------
# Probe accuracy under faults
# ----------------------------------------------------------------------
def fault_attack_accuracy(setup, trials=FAULT_TRIALS, targets=FAULT_TARGETS,
                          base_seed=500):
    """attack_accuracy() generalized with fault setup + retrying fetches."""
    correct = total = 0
    for trial in range(trials):
        topo = local_lan(seed=base_seed + trial)
        setup(topo)
        prefix = str(topo.content_prefix)
        hot = [f"{prefix}/fault{trial}-hot-{i}" for i in range(targets // 2)]
        cold = [f"{prefix}/fault{trial}-cold-{i}" for i in range(targets // 2)]
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


def test_probe_accuracy_under_faults(benchmark):
    scenarios = attack_scenarios()

    def run():
        return {
            name: fault_attack_accuracy(setup)
            for name, setup in scenarios.items()
        }

    accuracy = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, value in accuracy.items():
        print(f"  probe accuracy [{name:>12}]: {value:.3f}")

    # Clean LAN: the paper's near-certain attack.
    assert accuracy["baseline"] > 0.9
    # Loss only hurts the adversary (inflated probe RTTs read as misses).
    assert accuracy["iid-loss"] <= accuracy["baseline"] + 0.05
    assert accuracy["burst-loss"] <= accuracy["baseline"] + 0.05
    assert accuracy["iid-loss"] >= 0.6
    assert accuracy["burst-loss"] >= 0.6
    # A CS flush destroys the cached evidence mid-probe.
    assert accuracy["crash-flush"] < accuracy["baseline"]
    assert accuracy["crash-flush"] >= 0.3


# ----------------------------------------------------------------------
# Delivery + hit-rate degradation
# ----------------------------------------------------------------------
def run_delivery_scenario(setup, seed=7, requests=FAULT_REQUESTS, objects=20,
                          gap=10.0):
    net = Network(rng=RngRegistry(seed))
    net.add_router("R", capacity=objects)
    net.add_consumer("c")
    net.add_producer("p", "/data")
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(3.0))
    net.add_route("R", "/data", "p")
    horizon = requests * gap
    setup(net, horizon)
    outcomes = []
    latencies = []

    def proc():
        for i in range(requests):
            started = net.engine.now
            result = yield from net["c"].fetch(
                f"/data/obj-{i % objects}", retry=RETRY
            )
            outcomes.append(result is not None)
            if result is not None:
                # Includes retransmission backoff — unlike the per-attempt
                # RTT the consumer records.
                latencies.append(net.engine.now - started)
            yield Timeout(gap)

    net.spawn(proc(), "workload")
    # Conservation laws A-D must hold throughout every fault scenario,
    # not just on the happy path — crashes and flaps included.
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
        "link_dropped_down": net.links["c<->R"].packets_dropped_down,
    }


def test_delivery_under_faults(benchmark):
    scenarios = delivery_scenarios()

    def run():
        return {
            name: run_delivery_scenario(setup)
            for name, setup in scenarios.items()
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, row in stats.items():
        print(
            f"  [{name:>12}] delivered={row['delivered']:.3f} "
            f"hit_rate={row['hit_rate']:.3f} "
            f"latency={row['mean_latency']:.2f}ms "
            f"retransmits={row['retransmits']}"
        )

    baseline = stats["baseline"]
    assert baseline["delivered"] == 1.0
    assert baseline["retransmits"] == 0
    for name, row in stats.items():
        # Retransmission keeps delivery high under every scenario.
        assert row["delivered"] >= 0.9, name
    for name in ("iid-loss", "burst-loss", "link-flaps", "crash-flush"):
        assert stats[name]["retransmits"] > 0, name
    # Loss shows up in the loss counters; outages in the down counters.
    assert stats["iid-loss"]["link_lost"] > 0
    assert stats["burst-loss"]["link_lost"] > 0
    assert stats["link-flaps"]["link_dropped_down"] > 0
    # Losing packets costs latency; flushing the CS costs hit rate.
    assert stats["iid-loss"]["mean_latency"] > baseline["mean_latency"]
    assert stats["burst-loss"]["mean_latency"] > baseline["mean_latency"]
    assert stats["crash-flush"]["hit_rate"] < baseline["hit_rate"]
