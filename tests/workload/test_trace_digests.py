"""Golden digests of ``IrcacheGenerator(cfg).generate()``.

The SHA-256 of every column (``ids``, ``times``, ``users``,
``occurrence``) and of the URI list, for five configurations chosen to
reach each edge of the generate → intern path: a default-shaped trace
whose name table grows past 65 536 ids mid-trace, the streaming
benchmark's shape (session locality on), a user population past 65 536
(the session model's wide sort), a uniform catalog whose cdf values sit
exactly on Zipf guide-table bin edges, and a one-object catalog.  A
change that moves any draw, block, column or URI fails here; the digests
are never regenerated to make a change pass (``IRCACHE_ALGORITHM_VERSION``
would have to move with them).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workload.ircache import IrcacheConfig, IrcacheGenerator

CONFIGS = {
    "default_150k": dict(requests=150_000),
    "replay_stream_shaped": dict(
        requests=120_000, users=9_960, objects=15_000, sites=480,
        session_locality=0.3, seed=47,
    ),
    "wide_users": dict(
        requests=100_000, users=70_000, session_locality=0.3, seed=3
    ),
    "uniform_64": dict(
        requests=20_000, objects=64, popularity_exponent=0.0, seed=5
    ),
    "one_object": dict(requests=5_000, objects=1, seed=9),
}

GOLDEN = {
    "default_150k": {
        "ids": "5c71b0a08c365c97dc628b30d3accb20265f449f2cb629dc4c79017bc3a477b9",
        "times": "4252f3721f7526e8e3bbb08cbdd95bcffc91e50d4ed2dfcd6e11776f1cd25cb6",
        "users": "ef5de939db03b42c987b6b1ae90734fae229ac2695e0ec4ecee2c7c971290ac9",
        "occurrence": "6d8d9eae7694ee6cbc26e8aad0647567e68aaa3cd1a8602b0af118df7062965b",
        "uris": "bd0d3025e2cc7d88a2beaca6ffcabf6cd12f64da834e6e08853e032508d4fa6a",
    },
    "replay_stream_shaped": {
        "ids": "c77fa19bfa29479d816d34cafcdf16966474a5c9160f7ea615528333499b1fd8",
        "times": "cbb1396db2c7206ca487f31d85b2a86dc4a3c3f803c699046b3168f8fd2e5553",
        "users": "94b74493ef66920a16ac1f872900bac10fcaa7f683bcd994dc77c451f9f6089e",
        "occurrence": "4b6543f11bd3a891022628c27e492a1d1023f935c2fb06fc0e2d91b809cbd64b",
        "uris": "fe0417292da4d64bb219908c6295793b876722c308be79a11f3568e0fb81c174",
    },
    "wide_users": {
        "ids": "c6de732f1ea11a0fa0348cfc0a8c588312a23d7b1b50274ce8879155f8f8b7a5",
        "times": "2cef13d1742da77e3ce9ca1942bc57565aa88c27d7832a6104ad7c04ab42ad2c",
        "users": "d25de33f209b3a155cf869822bda750fced537f1effb57fe1b856c3d254660ba",
        "occurrence": "19cd66811f0340ed6ddd0cf16f7e6fd3c3b733d5759304f43478d9ce6b2ff7ad",
        "uris": "7aaa426bf4fce58a4c50df7ec4e5ca2060934dd60c4605d956e7a447e3e987ec",
    },
    "uniform_64": {
        "ids": "0f384e7c9b315d90cda5ca749ec5217db566fd9d0795253aa5427c95b2fe22e2",
        "times": "8c178aa72ecb45c0e9fa679e2346398774ec63be27cb76a198b1bd5be887223c",
        "users": "4a1f69f3f0f3954b1eae12366439b712b0028a7b3997f52441748b3b76082e12",
        "occurrence": "ab436d0ccded9c31afb1b468389f008fc0d83b4d4ea294435c7cfb4ee3682f64",
        "uris": "84299e47ddfda0ed6322cd19da7ff945965c82e0e494df55620e9235548b0bed",
    },
    "one_object": {
        "ids": "28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85",
        "times": "0fe0bcc8d9d6d54708ec443fd645d833e9274ca86be9cb82fde84c9fa32a9665",
        "users": "6b00ae7c0bfa3cff994f0c5811b495d75dfb2376316b43f0bcf7134bf6dfc830",
        "occurrence": "0bd2462cf373e94a14dfa9528ee8d28ca4e3fadde843c5391001b206b986c2cf",
        "uris": "168f3ac50b59012feda1ce2dde6082f5099a891131c4a51d35b88a03b36da3aa",
    },
}

#: digest name -> CompiledTrace attribute.
COLUMNS = (
    ("ids", "ids"),
    ("times", "times"),
    ("users", "users"),
    ("occurrence", "occurrence_index"),
)


def _digests(config: IrcacheConfig) -> dict:
    trace = IrcacheGenerator(config).generate()
    digests = {
        name: hashlib.sha256(
            np.ascontiguousarray(getattr(trace, attr)).tobytes()
        ).hexdigest()
        for name, attr in COLUMNS
    }
    digests["uris"] = hashlib.sha256(
        "\n".join(trace.iter_uris()).encode()
    ).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_digest_is_golden(name):
    assert _digests(IrcacheConfig(**CONFIGS[name])) == GOLDEN[name]


def test_configs_reach_the_edges_they_name():
    """The wide-key configurations really hold keys past 65 535."""
    wide_names = IrcacheGenerator(IrcacheConfig(**CONFIGS["default_150k"]))
    assert wide_names.generate().n_names > 65_536
    wide_users = IrcacheGenerator(IrcacheConfig(**CONFIGS["wide_users"]))
    assert int(wide_users.generate().users.max()) >= 65_536
