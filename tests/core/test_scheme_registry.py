"""The scheme registry: one name, one scheme, and misuse fails closed."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.registry import SchemeError, SchemeSpec, describe
from repro.core.schemes.uniform import UniformRandomCache
from repro.deploy.daemon import DAEMON_SCHEMES, make_scheme
from repro.perf.parallel import ReplaySpec, build_scheme


def test_a_stated_K_is_the_K_built():
    assert build_scheme("uniform", K=8).K == 8
    assert build_scheme("uniform").K == 1000  # the Fig. 5 target (5, 0, 0.01)


@pytest.mark.parametrize(
    "name, params, problem",
    [
        ("no-privacy", {"k": 5}, "does not accept k"),
        ("always-delay", {"delta": 0.01}, "does not accept delta"),
        ("uniform", {"epsilon": 0.1}, "does not accept epsilon"),
        ("uniform", {"K": 8, "k": 5, "delta": 0.01}, "mixes its forms"),
        ("uniform", {"delt": 0.01}, "does not accept delt"),
        ("exponential", {"K": 16}, "alpha"),
        ("naive-threshold", {"K": 8}, "does not accept K"),
        ("mystery", {}, "unknown scheme 'mystery'"),
    ],
)
def test_misuse_raises_one_typed_error(name, params, problem):
    with pytest.raises(SchemeError, match=problem):
        build_scheme(name, **params)


def test_the_error_names_the_scheme_and_what_it_accepts():
    with pytest.raises(SchemeError) as excinfo:
        SchemeSpec("exponential", {"alpha": 0.5, "delta": 0.01})
    message = str(excinfo.value)
    assert "'exponential'" in message
    assert "(alpha, K) or (k, epsilon, delta)" in message
    assert isinstance(excinfo.value, ValueError)


def test_infeasible_or_out_of_range_values_fail_when_the_spec_is_made():
    with pytest.raises(SchemeError, match="infeasible target"):
        SchemeSpec("exponential", {"k": 5, "epsilon": 0.5, "delta": 0.01})
    with pytest.raises(SchemeError, match="K must be >= 1"):
        SchemeSpec("uniform", {"K": 0})
    with pytest.raises(SchemeError, match="threshold must be >= 0"):
        SchemeSpec("naive-threshold", {"k": -1})


def test_a_replay_spec_refuses_a_bare_name():
    with pytest.raises(SchemeError, match="SchemeSpec"):
        ReplaySpec(scheme="uniform")


def test_defaults_are_filled_so_equal_schemes_are_equal_specs():
    spec = SchemeSpec("uniform")
    assert spec == SchemeSpec("uniform", {"k": 5, "delta": 0.01})
    assert hash(spec) == hash(SchemeSpec("uniform", {"delta": 0.01}))
    assert str(spec) == "uniform(k=5, delta=0.01)"
    assert str(SchemeSpec("exponential", {"alpha": 0.5, "K": 16})) == (
        "exponential(alpha=0.5, K=16)"
    )
    assert str(SchemeSpec("no-privacy")) == "no-privacy"
    assert pickle.loads(pickle.dumps(spec)) == spec


class TestGuarantee:
    def test_daemon_uniform_follows_theorem_VI_1(self):
        guarantee = SchemeSpec("uniform", {"K": 8}).guarantee(1)
        assert (guarantee.k, guarantee.epsilon, guarantee.delta) == (1, 0.0, 0.25)
        # 2k/K reaches 1 at k = 4: no guarantee from there on.
        assert SchemeSpec("uniform", {"K": 8}).guarantee(4).delta == 1.0

    def test_daemon_exponential_follows_theorem_VI_3(self):
        guarantee = SchemeSpec("exponential", {"alpha": 0.5, "K": 16}).guarantee(1)
        assert guarantee.k == 1
        assert guarantee.epsilon == pytest.approx(math.log(2))  # -k ln(alpha)
        alpha, K = 0.5, 16
        delta = (1 - alpha + alpha ** (K - 1) - alpha**K) / (1 - alpha**K)
        assert guarantee.delta == pytest.approx(delta)
        assert guarantee.delta == pytest.approx(0.500023, abs=1e-6)

    def test_sweep_targets_meet_their_target(self):
        uniform = SchemeSpec("uniform").guarantee(5)
        assert (uniform.epsilon, uniform.delta) == (0.0, 0.01)
        exponential = SchemeSpec("exponential").guarantee(5)
        assert exponential.epsilon == pytest.approx(0.005)
        assert exponential.delta <= 0.01

    def test_always_delay_is_perfect_and_the_rest_give_none(self):
        guarantee = SchemeSpec("always-delay").guarantee(5)
        assert (guarantee.epsilon, guarantee.delta) == (0.0, 0.0)
        assert SchemeSpec("no-privacy").guarantee(5) is None
        assert SchemeSpec("naive-threshold").guarantee(5) is None

    def test_header_lines(self):
        assert describe(DAEMON_SCHEMES["uniform"]) == (
            "scheme uniform(K=8): (5, 0, 1)-privacy"
        )
        assert describe(SchemeSpec("uniform")) == (
            "scheme uniform(k=5, delta=0.01): (5, 0, 0.01)-privacy"
        )
        assert describe(SchemeSpec("naive-threshold", {"k": 3})) == (
            "scheme naive-threshold(k=3): no guarantee"
        )


@pytest.mark.parametrize(
    "name, hand_written",
    [
        ("uniform", lambda rng: UniformRandomCache(K=8, rng=rng)),
        ("exponential", lambda rng: ExponentialRandomCache(alpha=0.5, K=16, rng=rng)),
    ],
)
def test_daemon_specs_draw_what_the_hand_written_factories_drew(name, hand_written):
    """The daemon's schemes before the registry, written out: the first
    1 000 k_C draws of each spec are theirs, value for value."""
    for seed in (0, 7):
        ours = make_scheme(name, np.random.default_rng(seed))
        theirs = hand_written(np.random.default_rng(seed))
        assert type(ours) is type(theirs)
        assert [ours.distribution.sample(ours.rng) for _ in range(1000)] == [
            theirs.distribution.sample(theirs.rng) for _ in range(1000)
        ]


def test_daemon_schemes_are_the_four_explicit_specs():
    assert [str(spec) for spec in DAEMON_SCHEMES.values()] == [
        "no-privacy",
        "uniform(K=8)",
        "exponential(alpha=0.5, K=16)",
        "always-delay",
    ]
