"""Unit tests for the defense agent: presets, hooks, install contract."""

from __future__ import annotations

import pytest

from repro.defense.agent import (
    CHECK_INTERVAL,
    DEFENSE_PRESETS,
    DefenseAgent,
    DefenseConfig,
    install_defense,
    install_network_defense,
    uninstall_defense,
)
from repro.defense.controller import MitigationPolicy
from repro.ndn.link import FixedDelay
from repro.ndn.name import Name
from repro.ndn.network import Network
from repro.sim.rng import RngRegistry

from tests.defense.test_controller import build


def _feed_novel(agent, face, count, start=0.0, step=1.0):
    """Push a pure-novelty interest stream through the agent's hook."""
    for i in range(count):
        agent.observe_interest(
            Name.parse(f"/content/novel-{i:05d}"),
            face,
            start + i * step,
            hit=False,
        )


class TestPresets:
    def test_registry_order_spans_the_frontier(self):
        assert DEFENSE_PRESETS == ("off", "static", "monitor", "adaptive")

    @pytest.mark.parametrize("name", ["off", "static"])
    def test_passive_presets_install_no_agent(self, name):
        assert DefenseConfig.preset(name) is None

    def test_monitor_preset_disarms_mitigation(self):
        assert DefenseConfig.preset("monitor") == DefenseConfig(mitigate=False)

    def test_adaptive_preset_is_the_full_loop(self):
        config = DefenseConfig.preset("adaptive")
        assert config is not None and config.mitigate

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown defense preset"):
            DefenseConfig.preset("rubber-stamp")


class TestInstall:
    def test_install_and_uninstall_toggle_the_forwarder_slot(self, engine):
        router, _, _ = build(engine)
        assert router.defense is None
        agent = install_defense(router)
        assert router.defense is agent
        uninstall_defense(router)
        assert router.defense is None

    def test_network_install_targets_named_routers(self):
        net = Network(rng=RngRegistry(0))
        for name in ("R1", "R2", "R3"):
            net.add_router(name, capacity=4)
        net.add_consumer("U")
        net.connect("U", "R1", FixedDelay(1.0))
        net.connect("R1", "R2", FixedDelay(1.0))
        net.connect("R2", "R3", FixedDelay(1.0))
        agents = install_network_defense(net, routers=("R1", "R2"))
        assert sorted(agents) == ["R1", "R2"]
        assert net.routers["R1"].defense is agents["R1"]
        assert net.routers["R3"].defense is None


class TestMonitorMode:
    def test_alarms_log_but_nothing_mitigates(self, engine):
        router, _, faces = build(engine)
        agent = install_defense(router, DefenseConfig.preset("monitor"))
        _feed_novel(agent, faces["bad"], 200)
        assert agent.log.total >= 1
        assert agent.controller is None
        assert agent.mitigations == []
        # The throttle gate stays wide open in monitor mode.
        for i in range(200):
            assert agent.allow_interest(None, faces["bad"], float(i) * 0.01)
        assert not agent.veto_cache(Name.parse("/x"), [faces["bad"]])


class TestAdaptiveMode:
    def test_pollution_alarm_closes_the_loop(self, engine):
        router, _, faces = build(engine)
        agent = install_defense(router, DefenseConfig.preset("adaptive"))
        _feed_novel(agent, faces["bad"], 200)
        assert agent.log.total >= 1
        assert agent.log.first("pollution") is not None
        assert agent.controller is not None and agent.controller.active
        assert "bad" in agent.controller.suspect_labels()
        assert any(m.action == "throttle" for m in agent.mitigations)
        # The suspect face is now rate-limited far below its send rate.
        now = 200.0
        verdicts = [
            agent.allow_interest(None, faces["bad"], now + i * 0.1)
            for i in range(100)
        ]
        assert not all(verdicts)

    def test_status_snapshot_is_json_ready(self, engine):
        import json

        router, _, faces = build(engine)
        agent = install_defense(router, DefenseConfig.preset("adaptive"))
        _feed_novel(agent, faces["bad"], 120)
        status = agent.status()
        assert status["router"] == "R"
        assert status["mitigate"] is True
        assert status["alarms"] == agent.log.total
        assert status["suspects"] == ["bad"]
        assert status["mitigations"] == len(agent.mitigations)
        json.dumps(status)  # must not raise

    def test_reset_restores_a_fresh_agent(self, engine):
        router, _, faces = build(engine)
        agent = install_defense(router, DefenseConfig.preset("adaptive"))
        _feed_novel(agent, faces["bad"], 200)
        assert agent.log.total >= 1
        agent.reset()
        assert agent.log.total == 0
        assert agent.mitigations == []
        assert not agent.controller.active

    def test_deescalation_polled_from_observe_path(self, engine):
        router, _, faces = build(engine)
        agent = install_defense(router, DefenseConfig.preset("adaptive"))
        _feed_novel(agent, faces["bad"], 150)
        assert agent.controller.active
        # Quiet benign traffic keeps flowing past the hysteresis hold:
        # the observe path itself must release the suspect.
        hold = MitigationPolicy().hold
        for i in range(40):
            agent.observe_interest(
                Name.parse("/content/hot-000"),
                faces["good"],
                200.0 + hold + i * CHECK_INTERVAL,
                hit=True,
            )
        assert not agent.controller.active
        assert any(m.action == "release" for m in agent.mitigations)
