"""The one table from a scheme name to its class and its keywords.

``uniform`` takes ``K``, or the target ``k``, ``delta`` (Thm VI.1);
``exponential`` takes ``alpha``, ``K``, or the target ``k``, ``epsilon``,
``delta`` (Thm VI.3); ``naive-threshold`` takes ``k``; ``no-privacy`` and
``always-delay`` take none.  Left out, a target keyword is its Fig. 5
value (k = 5, ε = 0.005, δ = 0.01).  An unknown name or keyword, a mix
of the two forms or an infeasible value raises :class:`SchemeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.privacy.distributions import DegenerateK
from repro.core.privacy.guarantees import PrivacyGuarantee, solve_exponential_params
from repro.core.privacy.guarantees import exponential_privacy, solve_uniform_K, uniform_privacy
from repro.core.schemes.always_delay import AlwaysDelayScheme
from repro.core.schemes.base import CacheScheme
from repro.core.schemes.exponential import ExponentialRandomCache
from repro.core.schemes.naive_threshold import NaiveThresholdScheme
from repro.core.schemes.no_privacy import NoPrivacyScheme
from repro.core.schemes.uniform import UniformRandomCache


class SchemeError(ValueError):
    """A scheme name, keyword or value the registry does not accept."""


class _Entry(NamedTuple):
    make: Callable[..., CacheScheme]  # (class keywords, rng) -> scheme
    direct: Tuple[str, ...]  # the class keywords
    target: Mapping[str, object]  # target keyword -> default
    solve: Optional[Callable[..., Dict[str, object]]]  # target -> class keywords
    guarantee: Optional[Callable[..., PrivacyGuarantee]]  # (k, class keywords)


_TABLE: Dict[str, _Entry] = {
    "no-privacy": _Entry(lambda rng: NoPrivacyScheme(), (), {}, None, None),
    "always-delay": _Entry(
        lambda rng: AlwaysDelayScheme(), (), {}, None,
        lambda k: PrivacyGuarantee(k=k, epsilon=0.0, delta=0.0),
    ),
    "uniform": _Entry(
        UniformRandomCache, ("K",), {"k": 5, "delta": 0.01},
        lambda k, delta: {"K": solve_uniform_K(k, delta)}, uniform_privacy,
    ),
    "exponential": _Entry(
        ExponentialRandomCache, ("alpha", "K"), {"k": 5, "epsilon": 0.005, "delta": 0.01},
        lambda **target: dict(zip(("alpha", "K"), solve_exponential_params(**target))),
        exponential_privacy,
    ),
    "naive-threshold": _Entry(
        NaiveThresholdScheme, (), {"k": 5}, lambda k: {"k": DegenerateK(k).k}, None,
    ),
}  # fmt: skip


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme name and its keywords, checked when made.  ``params`` is
    held as ``(keyword, value)`` pairs with the target defaults filled in,
    so specs that build the same scheme are equal."""

    name: str
    params: Mapping[str, object] = ()
    #: The class keywords: ``params``, or the target ``params`` solve to.
    _solved: Dict[str, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        entry = _TABLE.get(self.name)
        if entry is None:
            raise SchemeError(f"unknown scheme {self.name!r}; choose from {sorted(_TABLE)}")
        given = dict(self.params)
        if given.keys() <= entry.target.keys():
            params, solve = {**entry.target, **given}, entry.solve
        elif given.keys() <= set(entry.direct):
            params, solve = {key: given[key] for key in entry.direct if key in given}, None
        else:
            unknown = sorted(given.keys() - set(entry.direct) - entry.target.keys())
            forms = " or ".join(f"({', '.join(f)})" for f in (entry.direct, entry.target) if f)
            raise SchemeError(
                f"scheme {self.name!r} "
                + (f"does not accept {', '.join(unknown)}" if unknown else "mixes its forms")
                + f"; it accepts {forms or 'no keywords'}"
            )
        object.__setattr__(self, "params", tuple(params.items()))
        try:
            object.__setattr__(self, "_solved", solve(**params) if solve else params)
            self.guarantee(1)  # checks the class keywords' values
        except (TypeError, ValueError) as error:
            raise SchemeError(f"{self}: {error}") from None

    def build(self, rng: Optional[np.random.Generator] = None) -> CacheScheme:
        """A fresh scheme drawing its k_C from ``rng``."""
        return _TABLE[self.name].make(**self._solved, rng=rng)

    def guarantee(self, k: int) -> Optional[PrivacyGuarantee]:
        """The scheme's (k, ε, δ) guarantee; None when it gives none."""
        guarantee = _TABLE[self.name].guarantee
        return None if guarantee is None else guarantee(k, **self._solved)

    def __str__(self) -> str:
        args = ", ".join(f"{key}={value}" for key, value in self.params)
        return f"{self.name}({args})" if args else self.name


def describe(spec: SchemeSpec) -> str:
    """A header line: the spec and its guarantee at the spec's own k,
    else at Fig. 5's k = 5."""
    guarantee = spec.guarantee(dict(spec.params).get("k", 5))
    return f"scheme {spec}: {guarantee if guarantee is not None else 'no guarantee'}"
