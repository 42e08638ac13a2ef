"""The reference engine's per-packet path does each piece of work once.

Count-based (no timing), over one defense sweep shaped like the perf
ledger's ``frontier_sweep`` (off/adaptive × the three attacks, a 3 000 ms
window, the attack from 20% to 70% of it):

* a packet's TLV size is computed once per packet object, and never for
  an Interest/Nack hop copy whose hop-count length did not change (no hop
  count reaches 256 here, so only originals are sized);
* ``Interest.hop``/``Nack.hop`` copy without ``dataclasses.replace``;
* ``Consumer.fetch(retry=None)`` builds one ``RetryPolicy`` per distinct
  timeout, not one per fetch.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.defense import run_defense_sweep
from repro.faults.retry import RetryPolicy
from repro.ndn import packets, wire
from repro.ndn.packets import Data, Interest, Nack

HORIZON = 3000.0


def test_defense_sweep_sizes_copies_and_policies_once(monkeypatch):
    sized, replaced, hops, policies = [], [], Counter(), Counter()
    fast_wire_size, replace = wire.fast_wire_size, packets.replace
    post_init = RetryPolicy.__post_init__

    def counting_size(packet):
        sized.append(packet)  # held, so no id is reused
        return fast_wire_size(packet)

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

    monkeypatch.setattr(wire, "fast_wire_size", counting_size)
    monkeypatch.setattr(packets, "replace", counting_replace)
    monkeypatch.setattr(RetryPolicy, "__post_init__", counting_post_init)
    counting_hop(Interest)
    counting_hop(Nack)

    frontier = run_defense_sweep(
        defenses=("off", "adaptive"),
        seed=3,
        horizon=HORIZON,
        attack_start=0.2 * HORIZON,
        attack_end=0.7 * HORIZON,
    )

    assert len(frontier.points) == 6
    assert len({id(p) for p in sized}) == len(sized)
    assert {type(p) for p in sized} == {Interest, Data, Nack}
    assert all(p.hops == 1 for p in sized if not isinstance(p, Data))
    # The copies were made, and none was sized or built by ``replace``.
    assert hops[Interest] > 1000 and hops[Nack] > 0
    assert Interest not in replaced and Nack not in replaced
    # Thousands of single-attempt fetches; at most one policy per timeout
    # (none when an earlier sweep in this process already built it).
    assert max(policies.values(), default=0) <= 1
