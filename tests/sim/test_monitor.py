"""Unit tests for the counter monitor."""

from __future__ import annotations

from repro.sim.monitor import Monitor


class TestCounters:
    def test_counter_starts_at_zero(self):
        assert Monitor().counter("anything") == 0

    def test_count_increments(self):
        m = Monitor()
        m.count("hits")
        m.count("hits", 2)
        assert m.counter("hits") == 3

    def test_counters_snapshot(self):
        m = Monitor()
        m.count("a")
        m.count("b", 5)
        assert m.counters == {"a": 1, "b": 5}

    def test_reading_a_counter_does_not_add_it(self):
        m = Monitor()
        m.count("a")
        assert m.counter("nack_out") == 0
        assert m.counters == {"a": 1}

    def test_forwarder_summary_adds_no_phantom_counters(self):
        from repro.ndn.forwarder import Forwarder
        from repro.sim.engine import Engine

        router = Forwarder(Engine(), "R")
        before = router.monitor.counters
        assert router.stats_summary()["nack_out"] == 0.0
        assert router.monitor.counters == before
