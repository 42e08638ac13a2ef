"""Parity suite: fast_replay must be bit-identical to the reference replay.

The fast kernel re-implements the replay loop over interned int ids; its
only contract is *exact* equality of :class:`ReplayStats` with the
reference implementation — same hits, same misses, same float delay
totals — for every scheme, policy, marking rule, cache size, and seed.
Every test here builds fresh scheme/marking instances for both sides
(schemes and RequestMarking carry RNG state that one run would consume).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.base import Decision
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.grouping import NamespaceGrouping
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache
from repro.ndn.errors import CacheError
from repro.ndn.name import Name
from repro.workload.compiled import CompiledTrace, TraceShard
from repro.workload.fast_replay import _spans, fast_replay
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.marking import (
    ContentMarking,
    MarkingRule,
    NoMarking,
    RequestMarking,
)
from repro.workload.replay import replay
from repro.workload.sharded import compile_stream, compile_workload
from repro.workload.streaming import Request, TsvWorkload, Workload, save_tsv
from tests.conftest import compiled_trace


@pytest.fixture(scope="module")
def trace() -> Workload:
    """The source workload: the oracle reads its requests, the fast path
    compiles it."""
    return IrcacheGenerator(
        IrcacheConfig(requests=4000, objects=3000, seed=11)
    ).stream()


SCHEME_FACTORIES = {
    "no-privacy": lambda rng: NoPrivacyScheme(),
    "always-delay": lambda rng: AlwaysDelayScheme(),
    "uniform": lambda rng: UniformRandomCache.for_privacy_target(5, 0.01, rng=rng),
    "exponential": lambda rng: ExponentialRandomCache.for_privacy_target(
        5, 0.005, 0.01, rng=rng
    ),
    "naive-threshold": lambda rng: NaiveThresholdScheme(5, rng=rng),
    "exponential-grouped": lambda rng: ExponentialRandomCache(
        alpha=0.99, K=500, rng=rng, grouping=NamespaceGrouping(depth=1)
    ),
}

MARKING_FACTORIES = {
    "none": lambda: NoMarking(),
    "content": lambda: ContentMarking(0.3, salt=7),
    "request": lambda: RequestMarking(0.3, seed=7),
}


class OddRepeatOfEvenName(MarkingRule):
    """Reads both arguments (no shipped rule does): private iff this is
    an odd-numbered repeat of a name whose last component ends in an
    even digit."""

    def is_private(self, name, request_index):
        return request_index % 2 == 1 and name.components[-1][-1] in "02468"


class ThirdRequestOnwards(MarkingRule):
    """Reads the occurrence index alone (and may be handed no name)."""

    uses_name = False

    def is_private(self, name, request_index):
        return request_index >= 2


class InvertedContentMarking(ContentMarking):
    """Overrides ``is_private`` on a shipped rule: the array path keyed on
    the parent's coin would silently ignore this."""

    def is_private(self, name, request_index):
        return not super().is_private(name, request_index)


class BestOfTwoRequestMarking(RequestMarking):
    """Two generator draws per request: a block draw of one per request
    would mark differently and leave the generator elsewhere."""

    def is_private(self, name, request_index):
        first = super().is_private(name, request_index)
        return super().is_private(name, request_index) or first


class EverythingPrivate(NoMarking):
    def is_private(self, name, request_index):
        return True


class NeverRevealingUniform(UniformRandomCache):
    """Overrides ``decide_private``: Algorithm 1's inherited kernel would
    reveal the hits this subclass hides."""

    def decide_private(self, entry, now):
        return Decision.delayed(self.delay_policy.delay_for(entry, now))


class RefetchingNoPrivacy(NoPrivacyScheme):
    def on_request(self, entry, private, now):
        return Decision.miss() if private else Decision.hit()


class RevealingAlwaysDelay(AlwaysDelayScheme):
    def decide_private(self, entry, now):
        return Decision.hit()


#: One subclass per scheme family overriding a method its family's kernel
#: restates: it must get no kernel (oracle fallback), not the inherited one.
#: Values are (class, constructor arguments given the scheme generator).
OVERRIDING_SCHEMES = {
    "uniform-subclass": (NeverRevealingUniform, lambda rng: {"K": 6, "rng": rng}),
    "no-privacy-subclass": (RefetchingNoPrivacy, lambda rng: {}),
    "always-delay-subclass": (RevealingAlwaysDelay, lambda rng: {}),
}


def _run_both(trace, scheme_key, marking_key, **kwargs):
    """Reference and fast stats for one configuration, isolated RNGs."""
    seed = kwargs.get("seed", 0)
    reference = replay(
        trace,
        scheme=SCHEME_FACTORIES[scheme_key](np.random.default_rng(seed)),
        marking=MARKING_FACTORIES[marking_key](),
        **kwargs,
    )
    fast = fast_replay(
        trace,
        scheme=SCHEME_FACTORIES[scheme_key](np.random.default_rng(seed)),
        marking=MARKING_FACTORIES[marking_key](),
        **kwargs,
    )
    return reference, fast


@pytest.mark.parametrize("scheme_key", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("marking_key", sorted(MARKING_FACTORIES))
def test_parity_schemes_and_markings(trace, scheme_key, marking_key):
    reference, fast = _run_both(
        trace, scheme_key, marking_key, cache_size=300, seed=1
    )
    assert fast == reference


@pytest.mark.parametrize("policy", ["lru", "lfu", "fifo", "random"])
def test_parity_replacement_policies(trace, policy):
    reference, fast = _run_both(
        trace, "exponential", "content", cache_size=200, policy=policy, seed=2
    )
    assert fast == reference


@pytest.mark.parametrize("cache_size", [1, 50, 1000, None])
@pytest.mark.parametrize("seed", [0, 3])
def test_parity_cache_sizes_and_seeds(trace, cache_size, seed):
    reference, fast = _run_both(
        trace, "uniform", "content", cache_size=cache_size, seed=seed
    )
    assert fast == reference


def test_parity_without_delayed_hit_refresh(trace):
    reference, fast = _run_both(
        trace, "exponential", "content", cache_size=200,
        refresh_delayed_hits=False,
    )
    assert fast == reference


def test_parity_nonzero_fetch_delay_totals(trace):
    """Float delay totals must match bitwise, not approximately."""
    reference, fast = _run_both(
        trace, "always-delay", "content", cache_size=200, fetch_delay=13.7
    )
    assert fast.artificial_delay_total == reference.artificial_delay_total
    assert fast == reference


def test_accepts_precompiled_trace(trace):
    compiled = compile_workload(trace)
    assert isinstance(compiled, CompiledTrace)
    assert compile_workload(compiled) is compiled
    via_trace = fast_replay(
        trace, scheme=NoPrivacyScheme(), cache_size=100, seed=0
    )
    via_compiled = fast_replay(
        compiled, scheme=NoPrivacyScheme(), cache_size=100, seed=0
    )
    assert via_compiled == via_trace


def test_unknown_policy_and_bad_cache_size_rejected(trace):
    with pytest.raises(CacheError):
        fast_replay(trace, scheme=NoPrivacyScheme(), policy="mru")
    with pytest.raises(CacheError):
        fast_replay(trace, scheme=NoPrivacyScheme(), cache_size=0)


def test_kernelless_scheme_falls_back_to_reference(trace):
    class OpaqueScheme(NoPrivacyScheme):
        def make_kernel(self, names):
            return None

    expected = replay(trace, scheme=NoPrivacyScheme(), cache_size=100, seed=0)
    # A compiled trace yields Requests too: the fallback runs on any input.
    for source in (trace, compile_workload(trace)):
        stats = fast_replay(source, scheme=OpaqueScheme(), cache_size=100, seed=0)
        assert stats == expected


# ----------------------------------------------------------------------
# Every representation of one trace, one assertion
# ----------------------------------------------------------------------
def _recut(compiled: CompiledTrace, n_shards: int) -> CompiledTrace:
    """The same columns as ``n_shards`` in-RAM shards of uneven length."""
    n = compiled.n_requests
    bounds = [n * i * i // n_shards**2 for i in range(n_shards + 1)]
    return CompiledTrace(
        compiled.names,
        [
            TraceShard(
                index, lo, compiled.ids[lo:hi], compiled.times[lo:hi],
                compiled.users[lo:hi], compiled.occurrence_index[lo:hi],
                compiled.first_occurrence[lo:hi],
            )
            for index, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ],
    )


@pytest.fixture(scope="module")
def representations(trace, tmp_path_factory):
    compiled = compile_workload(trace)
    tsv = tmp_path_factory.mktemp("tsv") / "trace.tsv"
    save_tsv(trace, tsv)
    return {
        "trace": trace,
        "compiled": compiled,
        **{f"in-ram x{n}": _recut(compiled, n) for n in (1, 2, 7)},
        "mmap x5": compile_stream(
            trace, tmp_path_factory.mktemp("shards"), shard_size=900
        ),
        # What a sweep worker holds for a TSV trace-cache entry.
        "tsv in-ram": compile_workload(TsvWorkload(tsv)),
    }


REPRESENTATION_GRID = [
    (scheme_key, marking_key, "lru")
    for scheme_key in sorted(SCHEME_FACTORIES)
    for marking_key in ("content", "none", "odd-repeat", "request", "third-on")
] + [
    ("exponential", marking_key, policy)
    for policy in ("fifo", "lfu", "random")
    for marking_key in ("content", "odd-repeat", "request", "third-on")
] + [
    # Subclasses that override is_private: exact-type dispatch or drift.
    ("exponential", marking_key, "lru")
    for marking_key in ("content-subclass", "none-subclass", "request-subclass")
] + [
    (scheme_key, "content", "lru") for scheme_key in sorted(OVERRIDING_SCHEMES)
]


@pytest.mark.parametrize("scheme_key,marking_key,policy", REPRESENTATION_GRID)
def test_every_representation_replays_like_the_oracle(
    trace, representations, scheme_key, marking_key, policy
):
    """However the trace is held — the generator stream, one in-RAM shard,
    several uneven ones, mmap'd files, a TSV import — flags and occurrence indices are
    taken per shard and the stats equal the reference replay's."""
    markings = {
        **MARKING_FACTORIES,
        "odd-repeat": OddRepeatOfEvenName,
        "third-on": ThirdRequestOnwards,
        "content-subclass": lambda: InvertedContentMarking(0.3, salt=7),
        "none-subclass": EverythingPrivate,
        "request-subclass": lambda: BestOfTwoRequestMarking(0.3, seed=7),
    }

    def run(engine, workload, parent_class=False):
        if scheme_key in OVERRIDING_SCHEMES:
            cls, arguments = OVERRIDING_SCHEMES[scheme_key]
            cls = cls.__mro__[1] if parent_class else cls
            scheme = cls(**arguments(np.random.default_rng(4)))
        else:
            scheme = SCHEME_FACTORIES[scheme_key](np.random.default_rng(4))
        return engine(
            workload,
            scheme=scheme,
            marking=markings[marking_key](),
            cache_size=250,
            policy=policy,
            seed=4,
        )

    expected = run(replay, trace)
    assert expected.private_requests > 0 or marking_key == "none"
    if scheme_key in OVERRIDING_SCHEMES:
        # No kernel: every representation rides the oracle, and it shows
        # (the parent class answers differently).
        assert run(fast_replay, trace, parent_class=True) != expected
    got = {label: run(fast_replay, held) for label, held in representations.items()}
    assert got == dict.fromkeys(representations, expected)


# ----------------------------------------------------------------------
# Where flags are made: the per-trace coin memo and the block draw
# ----------------------------------------------------------------------
def _flags(rule, held: CompiledTrace):
    return [flag for _, flags in _spans(rule, held) for flag in flags]


def _oracle_flags(rule, compiled: CompiledTrace):
    """One ``is_private`` call per request, as ``replay()`` makes them."""
    names = compiled.names
    return [
        rule.is_private(names[cid], occ)
        for cid, occ in zip(compiled.ids.tolist(), compiled.occurrence_index.tolist())
    ]


SALTS = st.integers(min_value=-(2**31), max_value=2**63)
FRACTIONS = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@settings(max_examples=25, deadline=None)
@given(salt=SALTS, fraction=FRACTIONS, on_a_coin=st.one_of(st.none(), st.integers(0)))
def test_content_flags_equal_is_private_per_request(
    trace, representations, salt, fraction, on_a_coin
):
    """Any salt, any fraction — 0, 1 and exactly one name's coin, where
    ``<`` must stay strict — however the trace is cut.  The module-wide
    representations keep their memo across examples, so salts arrive in
    arbitrary order on top of whatever column the last example left."""
    compiled = representations["compiled"]
    if on_a_coin is not None:
        name = compiled.names[on_a_coin % compiled.n_names]
        fraction = ContentMarking(0.5, salt=salt).coin(str(name))
        assert not ContentMarking(fraction, salt=salt).is_private(name, 0)
    expected = _oracle_flags(ContentMarking(fraction, salt=salt), compiled)
    for label, held in representations.items():
        if label != "trace":
            assert _flags(ContentMarking(fraction, salt=salt), held) == expected, label


@settings(max_examples=15, deadline=None)
@given(
    salts=st.lists(SALTS, min_size=2, max_size=2, unique=True),
    fractions=st.lists(FRACTIONS, min_size=2, max_size=2),
    n_shards=st.sampled_from([1, 2, 7]),
)
def test_coin_memo_is_one_column_and_leaks_no_threshold(
    trace, salts, fractions, n_shards
):
    held = _recut(compile_workload(trace), n_shards)  # a new object: no memo yet
    low, high = (ContentMarking(fraction, salt=salts[0]) for fraction in fractions)
    # Two thresholds over one salt, each before and after the other.
    for rule in (low, high, low):
        assert _flags(rule, held) == _oracle_flags(rule, held)
    column = held.content_coins(low)
    assert held.content_coins(high) is column
    # A second salt is right and takes the one slot ...
    other = ContentMarking(fractions[0], salt=salts[1])
    assert _flags(other, held) == _oracle_flags(other, held)
    assert held.content_coins(other) is not column
    # ... so the first salt is hashed again, to the same column.
    again = held.content_coins(high)
    assert again is not column
    assert again.tobytes() == column.tobytes()
    assert _flags(high, held) == _oracle_flags(high, held)


def test_recompiled_trace_does_not_see_the_old_coin_column(trace):
    requests = list(trace)[:200]
    rule = ContentMarking(0.4, salt=3)
    before = compiled_trace(requests)
    assert _flags(rule, before) == _oracle_flags(rule, before)
    requests.append(Request(requests[-1].time, 0, Name.parse("/not/seen/before")))
    after = compiled_trace(requests)
    assert after is not before and after.n_names == before.n_names + 1
    assert len(after.content_coins(rule)) == after.n_names
    assert _flags(rule, after) == _oracle_flags(rule, after)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    fraction=FRACTIONS,
    label=st.sampled_from(["in-ram x1", "in-ram x2", "in-ram x7", "mmap x5"]),
)
def test_request_marking_block_draw_leaves_the_oracles_generator_state(
    trace, representations, seed, fraction, label
):
    ours, theirs = (RequestMarking(fraction, seed=seed) for _ in range(2))
    expected = replay(trace, marking=theirs, cache_size=250)
    got = fast_replay(representations[label], marking=ours, cache_size=250)
    assert got == expected
    # No over-draw: whatever is replayed next sees the same coins.
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state


# ----------------------------------------------------------------------
# The scheme generator: drawn from in blocks, handed back exactly
# ----------------------------------------------------------------------
RANDOM_CACHE_FACTORIES = {
    "uniform": lambda rng, grouping: UniformRandomCache(
        K=40, rng=rng, grouping=grouping
    ),
    "exponential": lambda rng, grouping: ExponentialRandomCache(
        alpha=0.9, K=60, rng=rng, grouping=grouping
    ),
    "naive-threshold": lambda rng, grouping: NaiveThresholdScheme(
        3, rng=rng, grouping=grouping
    ),
}


def _generator_state(scheme):
    return scheme.rng.bit_generator.state


@pytest.mark.parametrize("policy", ["lru", "fifo", "lfu", "random"])
@pytest.mark.parametrize("grouped", [False, True], ids=["ungrouped", "namespace"])
@pytest.mark.parametrize("scheme_key", sorted(RANDOM_CACHE_FACTORIES))
def test_scheme_generator_ends_where_the_oracles_does(
    trace, representations, scheme_key, grouped, policy
):
    """The kernel draws k_C a block at a time and ``close()`` returns the
    part not handed out: whatever runs next on the scheme's generator
    sees the stream the oracle's one-``sample``-per-activation leaves."""

    def scheme(state=None):
        built = RANDOM_CACHE_FACTORIES[scheme_key](
            np.random.default_rng(9), NamespaceGrouping(depth=2) if grouped else None
        )
        if state is not None:
            built.rng.bit_generator.state = state
        return built

    for refresh in (True, False):
        settings_ = dict(
            cache_size=120, policy=policy, seed=2, refresh_delayed_hits=refresh
        )
        oracle_scheme = scheme()
        expected = replay(
            trace, scheme=oracle_scheme, marking=ContentMarking(0.4, salt=1),
            **settings_,
        )
        assert expected.disguised_hits > 0 and expected.evictions > 0
        handed_back = _generator_state(oracle_scheme)
        assert (handed_back != _generator_state(scheme())) == (
            scheme_key != "naive-threshold"
        )
        for label, held in representations.items():
            ours = scheme()
            got = fast_replay(
                held, scheme=ours, marking=ContentMarking(0.4, salt=1), **settings_
            )
            assert got == expected, label
            assert _generator_state(ours) == handed_back, label
            # The same scheme object again: it starts from what was handed
            # back, like a fresh scheme put in the oracle's end state.
            # (replay() itself never resets a scheme, so the oracle is not
            # the reference for a second run: it would inherit groups.)
            again = fast_replay(
                held, scheme=ours, marking=ContentMarking(0.4, salt=1), **settings_
            )
            fresh = scheme(handed_back)
            assert again == fast_replay(
                held, scheme=fresh, marking=ContentMarking(0.4, salt=1), **settings_
            ), label
            assert _generator_state(ours) == _generator_state(fresh), label


class RaisesOnCall(MarkingRule):
    """Private for every request until its ``fatal``-th call raises."""

    def __init__(self, fatal: int) -> None:
        self.fatal = fatal
        self.calls = 0

    def is_private(self, name, request_index):
        self.calls += 1
        if self.calls == self.fatal:
            raise RuntimeError("marking rule failed mid-trace")
        return True


@pytest.mark.parametrize("scheme_key", ["uniform", "exponential"])
def test_an_exception_mid_trace_leaves_no_block_behind(trace, scheme_key):
    """Flags are made a shard at a time, so a rule that raises inside
    shard 4 of 7 stops the replay after shards 0-3: ``close()`` still
    runs, and the generator has advanced by the thresholds those shards
    consumed — no more, and not by a whole block."""
    held = _recut(compile_workload(trace), 7)
    replayed = sum(len(shard.ids) for shard in list(held.iter_shards())[:4])
    assert 0 < replayed < held.n_requests - 1

    ours = RANDOM_CACHE_FACTORIES[scheme_key](np.random.default_rng(9), None)
    kernels = []
    make_kernel = ours.make_kernel
    ours.make_kernel = lambda names: kernels.append(make_kernel(names)) or kernels[-1]
    with pytest.raises(RuntimeError, match="mid-trace"):
        fast_replay(held, scheme=ours, marking=RaisesOnCall(replayed + 2), cache_size=120)

    theirs = RANDOM_CACHE_FACTORIES[scheme_key](np.random.default_rng(9), None)
    prefix = replay(
        list(trace)[:replayed], scheme=theirs, marking=RaisesOnCall(0),
        cache_size=120,
    )
    assert prefix.evictions > 0
    assert _generator_state(ours) == _generator_state(theirs)
    (kernel,) = kernels
    assert kernel._block == [] and kernel._rewind is None
    kernel.close()  # idempotent
    assert _generator_state(ours) == _generator_state(theirs)
