"""Property tests: strategy RNG determinism + hop-count TLV hardening."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ndn.errors import PacketError
from repro.ndn.name import Name
from repro.ndn.packets import Data, Interest, Nack
from repro.ndn.strategy import make_strategy
from repro.ndn.wire import decode_packet, encode_packet
from repro.sim.rng import RngRegistry

router_names = st.lists(
    st.text(alphabet="abcdefgh0123456789-", min_size=1, max_size=12),
    min_size=1, max_size=6, unique=True,
)


def decisions(kind, registry, router, hop_sequence, **params):
    """The admission decision sequence one router's strategy makes."""
    strategy = make_strategy(
        kind, rng=registry.stream(f"caching:{router}"), **params
    )
    name = Name.parse("/content/x")
    return [strategy.admit(name, hops, None) for hops in hop_sequence]


# ----------------------------------------------------------------------
# Seeding discipline: a router's admission decisions are a pure function
# of (root seed, router name, decision index).  Worker count and stream
# construction order must not matter — a parallel sweep shard that only
# builds *its* routers sees the same streams as a run that builds all of
# them in any order.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    routers=router_names,
    hops=st.lists(st.integers(min_value=0, max_value=12),
                  min_size=1, max_size=40),
    kind=st.sampled_from(["bernoulli", "probcache"]),
)
@settings(max_examples=150, deadline=None)
def test_decisions_independent_of_construction_order(seed, routers, hops, kind):
    forward = RngRegistry(seed)
    reverse = RngRegistry(seed)
    got_forward = {
        r: decisions(kind, forward, r, hops) for r in routers
    }
    got_reverse = {
        r: decisions(kind, reverse, r, hops) for r in reversed(routers)
    }
    assert got_forward == got_reverse


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    routers=router_names,
    hops=st.lists(st.integers(min_value=0, max_value=12),
                  min_size=1, max_size=40),
    kind=st.sampled_from(["bernoulli", "probcache"]),
    workers=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_decisions_independent_of_worker_sharding(
    seed, routers, hops, kind, workers
):
    """Shard the routers across N 'workers', each with its own registry
    (as a process pool would); the union must equal the 1-worker run."""
    single = RngRegistry(seed)
    whole = {r: decisions(kind, single, r, hops) for r in routers}
    sharded = {}
    for w in range(workers):
        registry = RngRegistry(seed)
        for r in routers[w::workers]:
            sharded[r] = decisions(kind, registry, r, hops)
    assert sharded == whole


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    router=st.text(alphabet="abc0", min_size=1, max_size=8),
    hops=st.lists(st.integers(min_value=0, max_value=12),
                  min_size=1, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_unrelated_streams_do_not_perturb_decisions(seed, router, hops):
    plain = RngRegistry(seed)
    noisy = RngRegistry(seed)
    # Consuming other namespaces (policy:, link:) must not move caching:.
    noisy.stream(f"policy:{router}").random(17)
    noisy.stream("link:a<->b").random(5)
    assert decisions("probcache", plain, router, hops) == decisions(
        "probcache", noisy, router, hops
    )


# ----------------------------------------------------------------------
# Wire: the origin-hops TLV round-trips, stays byte-identical when zero,
# and never widens the decoder's failure modes beyond PacketError.
# ----------------------------------------------------------------------
component = st.text(
    alphabet=st.characters(blacklist_characters="/", min_codepoint=33,
                           max_codepoint=0x2FFF),
    min_size=1, max_size=20,
)
names = st.lists(component, min_size=0, max_size=6).map(Name)

datas_with_hops = st.builds(
    Data,
    name=names,
    producer=st.text(min_size=0, max_size=30),
    private=st.booleans(),
    size=st.integers(min_value=0, max_value=2**24),
    freshness=st.one_of(
        st.none(), st.integers(min_value=1, max_value=10**7).map(float)
    ),
    exact_match_only=st.booleans(),
    origin_hops=st.integers(min_value=0, max_value=200),
)


@given(datas_with_hops)
@settings(max_examples=300, deadline=None)
def test_origin_hops_roundtrip(data):
    decoded = decode_packet(encode_packet(data))
    assert decoded == data
    assert decoded.origin_hops == data.origin_hops


@given(datas_with_hops.filter(lambda d: d.origin_hops > 0))
@settings(max_examples=150, deadline=None)
def test_zero_hops_encoding_is_hop_free(data):
    """origin_hops=0 must encode byte-identically to a pre-TLV build."""
    baseline = Data(
        name=data.name, producer=data.producer, private=data.private,
        size=data.size, freshness=data.freshness,
        exact_match_only=data.exact_match_only,
    )
    assert encode_packet(baseline) == encode_packet(data.at_origin())
    assert len(encode_packet(data)) > len(encode_packet(baseline))


@given(datas_with_hops, st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_hop_packets_never_leak_exceptions(data, draw):
    wire = bytearray(encode_packet(data))
    flips = draw.draw(st.integers(min_value=1, max_value=8))
    for _ in range(flips):
        index = draw.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        wire[index] ^= draw.draw(st.integers(min_value=1, max_value=255))
    try:
        packet = decode_packet(bytes(wire))
    except PacketError:
        return
    assert isinstance(packet, (Interest, Data, Nack))


@given(datas_with_hops, st.data())
@settings(max_examples=200, deadline=None)
def test_truncated_hop_packets_never_leak_exceptions(data, draw):
    wire = encode_packet(data)
    cut = draw.draw(st.integers(min_value=0, max_value=len(wire) - 1))
    try:
        packet = decode_packet(wire[:cut])
    except PacketError:
        return
    assert isinstance(packet, (Interest, Data, Nack))
