"""The defense scenario's honest Zipf pick equals ``Generator.choice``.

The honest consumers' scripts draw all their picks up front with
``_zipf_picks``: one ``random(count)`` block searched right-sided in a
CDF formed as ``rng.choice(n, p=weights)`` forms it (``cdf = p.cumsum();
cdf /= cdf[-1]``).  That is ``choice``'s own algorithm, one double per
pick, so the picks and the generator's state after them must equal
``count`` calls of ``choice``, draw for draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defense.scenario import HOT_CATALOG, ZIPF_EXPONENT, _zipf_picks


@pytest.mark.parametrize("seed", [0, 83])
def test_cdf_picks_and_state_equal_choice(seed):
    n, exponent = HOT_CATALOG, ZIPF_EXPONENT
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    picks = _zipf_picks(ours, 10_000).tolist()
    expected = [int(theirs.choice(n, p=weights)) for _ in range(10_000)]
    assert picks == expected
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert set(picks) == set(range(n))  # every rank was reached
