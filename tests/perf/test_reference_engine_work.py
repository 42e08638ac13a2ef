"""The reference engine's per-packet path does only the work a decision needs.

Count-based (no timing), over one defense sweep shaped like the perf
ledger's ``frontier_sweep`` (off/adaptive × the three attacks, a 3 000 ms
window, the attack from 20% to 70% of it):

* no packet is encoded or sized: ``wire.encode_packet``,
  ``wire.wire_size`` and the three per-type encoders they reach through
  the module's globals (so a caller that imported either by name is
  counted too) are never called.  A simulated link counts packets, and
  nothing reads its bytes;
* ``Interest.hop``/``Nack.hop`` copy without ``dataclasses.replace``;
* ``Consumer.fetch(retry=None)`` builds one ``RetryPolicy`` per distinct
  timeout, not one per fetch;
* consumer scripts run by callback: the only ``Process`` is the adaptive
  attacker's (one per adaptive-attack run, 2 per sweep; 16 more while
  each script was a process), and the only ``WaitSignal`` is one per
  attacker fetch, none for a script fetch.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.defense import run_defense_sweep
from repro.faults.retry import RetryPolicy
from repro.ndn import packets, wire
from repro.ndn.packets import Interest, Nack
from repro.sim.process import Process, WaitSignal

HORIZON = 3000.0


def test_defense_sweep_sizes_nothing_and_copies_and_policies_once(monkeypatch):
    coded, replaced, hops, policies = Counter(), [], Counter(), Counter()
    replace = packets.replace
    post_init = RetryPolicy.__post_init__

    def counting(name):
        function = getattr(wire, name)

        def counted(packet):
            coded[name] += 1
            return function(packet)

        monkeypatch.setattr(wire, name, counted)

    def counting_replace(obj, **changes):
        replaced.append(type(obj))
        return replace(obj, **changes)

    def counting_hop(cls):
        hop = cls.hop

        def counted(packet):
            hops[cls] += 1
            return hop(packet)

        monkeypatch.setattr(cls, "hop", counted)

    def counting_post_init(policy):
        policies[policy.timeout] += 1
        post_init(policy)

    for name in ("encode_packet", "wire_size", "encode_interest", "encode_data",
                 "encode_nack"):
        counting(name)
    monkeypatch.setattr(packets, "replace", counting_replace)
    monkeypatch.setattr(RetryPolicy, "__post_init__", counting_post_init)
    counting_hop(Interest)
    counting_hop(Nack)
    built = Counter()

    def counting_init(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    counting_init(Process)
    counting_init(WaitSignal)

    frontier = run_defense_sweep(
        defenses=("off", "adaptive"),
        seed=3,
        horizon=HORIZON,
        attack_start=0.2 * HORIZON,
        attack_end=0.7 * HORIZON,
    )

    assert len(frontier.points) == 6
    assert coded == {}
    # The copies were made, and none was built by ``replace``.
    assert hops[Interest] > 1000 and hops[Nack] > 0
    assert Interest not in replaced and Nack not in replaced
    # Thousands of single-attempt fetches; at most one policy per timeout
    # (none when an earlier sweep in this process already built it).
    assert max(policies.values(), default=0) <= 1
    # Scripts run by callback: the adaptive attacker is the only process,
    # and its fetches the only waits.
    attacker_fetches = [p.attacker_attempts for p in frontier.points if p.attack == "adaptive"]
    assert len(attacker_fetches) == 2 and min(attacker_fetches) > 0
    assert built[Process] == 2
    assert built[WaitSignal] == sum(attacker_fetches)

