"""Interactive sessions stay bit-identical to a recorded golden.

``golden_interactive_sessions.json`` pins 128 two-way sessions on
alice -- R -- bob, 30 frames each way at a 20 ms cadence, over the grid
loss on alice's link (0, 0.08, 0.25, 0.5) x root seed (0-3) x link delay
(fixed 1 ms, or 3 ms with Gaussian jitter) x ``retransmit_timeout``
(40, 200 ms) x router (plain, or Nacking: a 40 interests/s rate limit
with a burst of 2 and a two-entry PIT).  Per run it pins each endpoint's
``frame_stats`` as (sequence, latency, retransmitted), the engine's end
time and ``events_processed``, and R's non-zero monitor counters.

It pins no endpoint counter: what an endpoint counts is its own
vocabulary, while what it delivered, when, and what the network saw is
the behaviour.  A retry, Nack or timeout decision that moves one frame,
one event or one router counter shows here as a named run.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.naming.session import SessionNamer
from repro.ndn.admission import InterestRateLimit
from repro.ndn.apps.interactive import InteractiveEndpoint
from repro.ndn.link import FixedDelay, GaussianJitterDelay
from repro.ndn.network import Network
from repro.sim.rng import RngRegistry

GOLDEN = json.loads(
    Path(__file__).with_name("golden_interactive_sessions.json").read_text("utf-8")
)

SECRET = b"golden-session-key"
FRAMES = 30
ROUTERS = ("plain", "nacking")
LINKS = ("fixed", "jitter")
LOSSES = (0.0, 0.08, 0.25, 0.5)
SEEDS = (0, 1, 2, 3)
TIMEOUTS = (40.0, 200.0)


def run_key(router: str, link: str, loss: float, seed: int, timeout: float) -> str:
    return f"{router}/{link}/loss={loss}/seed={seed}/timeout={timeout}"


def grid_keys(router: str, link: str) -> List[str]:
    return [
        run_key(router, link, loss, seed, timeout)
        for loss, seed, timeout in itertools.product(LOSSES, SEEDS, TIMEOUTS)
    ]


def session_outcome(key: str) -> Dict[str, object]:
    """Run the session ``key`` names and return what the golden pins."""
    router_kind, link, loss, seed, timeout = key.split("/")
    loss = float(loss.split("=")[1])
    seed = int(seed.split("=")[1])
    timeout = float(timeout.split("=")[1])
    net = Network(rng=RngRegistry(seed))
    if router_kind == "nacking":
        router = net.add_router(
            "R", rate_limit=InterestRateLimit(40, 2), pit_capacity=2
        )
    else:
        router = net.add_router("R")
    alice = InteractiveEndpoint(
        net.engine, SessionNamer(SECRET, "/alice/voip", "/bob/voip"), "alice"
    )
    bob = InteractiveEndpoint(
        net.engine, SessionNamer(SECRET, "/bob/voip", "/alice/voip"), "bob"
    )
    net.add_endpoint("alice", alice)
    net.add_endpoint("bob", bob)

    def delay():
        if link == "jitter":
            return GaussianJitterDelay(base=3.0, jitter_std=0.3)
        return FixedDelay(1.0)

    net.connect("alice", "R", delay(), loss_rate=loss)
    net.connect("bob", "R", delay())
    net.add_route("R", "/alice", "alice")
    net.add_route("R", "/bob", "bob")
    for endpoint in (alice, bob):
        net.spawn(
            endpoint.run_session(FRAMES, frame_interval=20.0, retransmit_timeout=timeout),
            endpoint.label,
        )
    net.run()
    return {
        "frames": {
            endpoint.label: [
                [stats.sequence, stats.latency, stats.retransmitted]
                for stats in endpoint.frame_stats
            ]
            for endpoint in (alice, bob)
        },
        "now": net.engine.now,
        "events": net.engine.events_processed,
        "router": {
            name: value for name, value in sorted(router.monitor.counters.items()) if value
        },
    }


def session_mismatches(keys=None) -> List[str]:
    """The golden runs (all, or ``keys``) whose outcome differs."""
    return [
        key for key in (sorted(GOLDEN) if keys is None else keys)
        if session_outcome(key) != GOLDEN[key]
    ]


def test_golden_covers_the_grid():
    assert set(GOLDEN) == {
        key for router, link in itertools.product(ROUTERS, LINKS)
        for key in grid_keys(router, link)
    }
    # The grid exercises what it is there to pin.
    nacked = [key for key, run in GOLDEN.items() if run["router"].get("nack_out")]
    assert nacked and all(key.startswith("nacking/") for key in nacked)
    assert any(
        stats[2] for run in GOLDEN.values() for frames in run["frames"].values()
        for stats in frames
    )


@pytest.mark.parametrize(
    "router,link", list(itertools.product(ROUTERS, LINKS))
)
def test_sessions_are_bit_identical(router, link):
    assert session_mismatches(grid_keys(router, link)) == []
