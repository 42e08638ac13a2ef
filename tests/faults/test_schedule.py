"""FaultSchedule: what it accepts, and a bad schedule never partly applies."""

from __future__ import annotations

import pytest

from repro.faults import FaultConfigError, FaultSchedule, InterestFloodWindow
from repro.ndn.link import FixedDelay
from repro.ndn.network import Network
from repro.sim.rng import RngRegistry


def chain(seed=0):
    net = Network(rng=RngRegistry(seed))
    net.add_router("R")
    net.add_consumer("c")
    net.add_producer("p", "/data")
    net.connect("c", "R", FixedDelay(1.0))
    net.connect("R", "p", FixedDelay(3.0))
    net.add_route("R", "/data", "p")
    return net


class TestValidation:
    def test_unknown_attacker_rejected_before_scheduling(self):
        net = chain()
        schedule = FaultSchedule(
            [
                InterestFloodWindow("c", "/data", 10.0, 20.0),
                InterestFloodWindow("ghost", "/data", 10.0, 20.0),
            ]
        )
        before = net.engine.pending_count
        with pytest.raises(FaultConfigError, match="unknown entity"):
            schedule.apply(net)
        assert net.engine.pending_count == before  # nothing partially applied

    # NaN compares false both ways: the window guard must refuse it at
    # build time, not leave it to fail when the window opens mid-run.
    @pytest.mark.parametrize(
        "fault",
        [
            lambda: InterestFloodWindow("c", "/data", float("nan"), 10),
            lambda: InterestFloodWindow("c", "/data", 0, float("nan")),
        ],
        ids=["start", "end"],
    )
    def test_non_finite_field_refused(self, fault):
        with pytest.raises(FaultConfigError):
            fault()

    def test_add_rejects_unknown_type(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule().add("not-a-fault")
