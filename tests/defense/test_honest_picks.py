"""The defense scenario's honest Zipf pick equals ``Generator.choice``.

``_honest_proc`` searches a precomputed CDF with one ``random()`` draw
instead of calling ``rng.choice(n, p=weights)`` per request.  That is
``choice``'s own algorithm (``cdf = p.cumsum(); cdf /= cdf[-1]``, then a
right-sided search of one double), so the picks and the generator's
state after them must be equal, draw for draw.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest

from repro.defense.scenario import HOT_CATALOG, ZIPF_EXPONENT, _zipf_cdf, _zipf_weights


@pytest.mark.parametrize("seed", [0, 83])
def test_cdf_picks_and_state_equal_choice(seed):
    n, exponent = HOT_CATALOG, ZIPF_EXPONENT
    weights = _zipf_weights(n, exponent)
    cdf = _zipf_cdf(n, exponent)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = [bisect_right(cdf, ours.random()) for _ in range(10_000)]
    expected = [int(theirs.choice(n, p=weights)) for _ in range(10_000)]
    assert picks == expected
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert set(picks) == set(range(n))  # every rank was reached
