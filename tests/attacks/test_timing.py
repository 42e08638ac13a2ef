"""Integration-level tests for the consumer-privacy timing attack."""

from __future__ import annotations

import pytest

from repro.attacks.timing import (
    CacheProbeAttack,
    CampaignError,
    RttDistributions,
    attack_accuracy,
    collect_rtt_distributions,
    run_probe_attack,
)
from repro.ndn.topology import fat_tree, local_host, local_lan, wan
from repro.perf.parallel import build_scheme
from repro.sim.process import Timeout


class TestRttDistributions:
    def test_extend_merges(self):
        a = RttDistributions(hit_rtts=[1.0], miss_rtts=[5.0])
        b = RttDistributions(hit_rtts=[1.1], miss_rtts=[5.1])
        a.extend(b)
        assert a.hit_rtts == [1.0, 1.1]
        assert a.miss_rtts == [5.0, 5.1]

    def test_extend_keeps_the_first_fallback_engine(self):
        a = RttDistributions()
        assert a.engine == "batch"
        a.extend(RttDistributions(engine="batch"))
        a.extend(RttDistributions(engine="reference: a"))
        a.extend(RttDistributions(engine="reference: b"))
        assert a.engine == "reference: a"

    def test_bayes_success_property(self):
        dists = RttDistributions(hit_rtts=[1.0] * 20, miss_rtts=[9.0] * 20)
        assert dists.bayes_success_probability == pytest.approx(1.0)


class TestCollectDistributions:
    def test_lan_campaign_separates_classes(self):
        dists = collect_rtt_distributions(
            local_lan, objects_per_trial=20, trials=2
        )
        assert len(dists.hit_rtts) == 40
        assert len(dists.miss_rtts) == 40
        assert max(dists.hit_rtts) < min(dists.miss_rtts)
        assert dists.bayes_success_probability > 0.99

    def test_local_host_campaign(self):
        dists = collect_rtt_distributions(
            local_host, objects_per_trial=15, trials=2
        )
        assert dists.bayes_success_probability > 0.99

    def test_trials_are_reproducible(self):
        a = collect_rtt_distributions(local_lan, objects_per_trial=5, trials=1)
        b = collect_rtt_distributions(local_lan, objects_per_trial=5, trials=1)
        assert a.hit_rtts == b.hit_rtts
        assert a.miss_rtts == b.miss_rtts

    def test_different_seeds_differ(self):
        a = collect_rtt_distributions(
            local_lan, objects_per_trial=5, trials=1, base_seed=0
        )
        b = collect_rtt_distributions(
            local_lan, objects_per_trial=5, trials=1, base_seed=99
        )
        assert a.hit_rtts != b.hit_rtts

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            collect_rtt_distributions(local_lan, objects_per_trial=0)
        with pytest.raises(ValueError):
            collect_rtt_distributions(local_lan, trials=0)


class TestEndToEndAttack:
    def test_adversary_procedure_accuracy_on_lan(self):
        """The full d1-vs-d2 decision procedure, scored with ground truth."""
        accuracy = attack_accuracy(
            local_lan, targets_per_trial=20, trials=2
        )
        assert accuracy > 0.95

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            attack_accuracy(local_lan, targets_per_trial=1)


def in_simulation_verdicts(topo, hot, cold, reference, warmup, private):
    """The oracle: U and CacheProbeAttack as reference-engine processes."""
    attack = CacheProbeAttack(topo)

    def user_proc():
        for name in hot:
            assert (yield from topo.user.fetch(name, private=private)) is not None
            yield Timeout(2.0)

    def adversary_proc():
        yield Timeout(warmup)
        yield from attack.run(targets=hot + cold, reference=reference)

    topo.engine.spawn(user_proc(), label="user")
    topo.engine.spawn(adversary_proc(), label="adv")
    topo.engine.run()
    return attack.verdicts


class TestScriptedAttackMatchesInSimulationAdversary:
    @pytest.mark.parametrize(
        "builder, scheme, caching, private",
        [
            (local_lan, "no-privacy", None, False),
            (wan, "uniform", "lcd", True),
            (fat_tree, "exponential", "probcache", True),
        ],
    )
    def test_post_hoc_verdicts_equal_cache_probe_attack(
        self, builder, scheme, caching, private
    ):
        def fresh():
            return builder(
                seed=11,
                scheme=build_scheme(scheme, seed=5),
                cache_capacity=32,
                caching=caching,
            )

        hot = [f"/content/private/hot-{i}" for i in range(6)]
        cold = [f"/content/private/cold-{i}" for i in range(6)]
        args = dict(reference="/content/ref", warmup=1120.0, private=private)
        oracle = in_simulation_verdicts(fresh(), hot, cold, **args)
        verdicts, correct, observed = run_probe_attack(fresh(), hot, cold, **args)
        assert observed.kernel == "batch"
        assert verdicts == oracle
        assert len(verdicts) == 12
        assert correct == sum(
            v.decided_hit == (str(v.target) in hot) for v in verdicts
        )


class TestCampaignFailsLoudly:
    def test_undelivered_fetch_raises_typed_error_naming_the_consumer(self):
        def cut_off_lan(seed):
            topo = local_lan(seed=seed)
            topo.network.links["R<->P"].set_down()
            return topo

        with pytest.raises(CampaignError, match=r"U: 3 of 3 .* not delivered"):
            collect_rtt_distributions(cut_off_lan, objects_per_trial=3, trials=1)
        # The pre-script campaigns raised RuntimeError for a failed user
        # prefetch; callers catching that keep working.
        assert issubclass(CampaignError, RuntimeError)
