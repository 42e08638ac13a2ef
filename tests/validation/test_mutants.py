"""Mutants of the fast paths, each killed by a named check.

The table is ``MUTANTS``: a mutant name -> (owner, attribute, the source
edit that makes the mutant, the check that must fail).  A mutant is the
live source of the attribute with one edit applied (``old`` must occur
exactly once, so a rewrite of the code fails here loudly instead of
leaving a mutant that no longer mutates anything), compiled in its own
module's namespace and installed with ``monkeypatch`` on the owner — on
each owner, when a tuple names every module (or registry dict) that
binds the attribute; no file changes.

Each check keeps its oracle off the mutated code: the topology
differential compares the reference engine against the batch kernel,
the hop-copy, horizon and wait tests compute their expectation
independently (``dataclasses.replace``, hand-timed schedules), and the
Zipf and sort-key checks compare against ``np.searchsorted`` and an
int64 ``argsort``.
``golden_defense_frontier.json`` kills one engine mutant.  A fetch
keeps no wait token (its answer cancels its timeout instead), so the
loop firing a cancelled entry times out a fetch that already returned
and the sweep fails; a fired cancelled PIT timer still finds its entry
gone.  The defense tree has no private or scoped interests and no
``run(until=...)``, its one process (the adaptive attacker) waits on
nothing that can go stale, and it runs on the reference engine, so the
batch kernel's timer-lane mutants never reach it either.  The topology
differential kills all of them: every case cancels timers at the lane's
head, and its 4.3 ms tree case arms fetch timeouts that sort before a
4 000 ms PIT expiry at the lane's tail.

Six mutants sit on the consumer's fetch loop.  A timed-out attempt
that keeps its pending record, and an answered one that leaves its
timeout armed, are killed by ``late_data_mismatches``
(``tests/ndn/test_apps.py``: a retried fetch whose Data comes late, timed
by hand); a Nacked attempt retried without its back-off by the overload
entries of ``golden_harness_tallies.json``, whose ``drop-new`` run is
Nacked and retried.  The daemon's consumer runs the same loop on the
real-time engine, and three rules only its socket tests reach: a
``no-route`` Nack retried instead of ending the fetch (killed by
``tests/deploy/test_endpoints.py``'s no-route case), an attempt's
lifetime not cut to the remaining deadline (``tests/deploy/test_daemon.py``'s
``deadline=700.0`` case) and Data answering the latest-registered of two
matching pending prefixes (the endpoint case where an earlier prefix
waiter wins).  The interactive endpoint fetches through the same
loop; its one mutant, a frame marked retransmitted although its first
attempt answered, is killed by ``golden_interactive_sessions.json``
(``tests/integration/test_interactive_golden.py``), which pins every
frame's flag.

Three mutants sit on :meth:`CompiledTopology.rebind`, each killed by
``rebind_mismatches`` (``tests/sim/test_rebind.py``: two points rebound
from one ``fat_tree`` shape against fresh builds and compiles).

Two mutants sit on the shared script steps.  The driver's fetch memo
keyed without the private flag is killed by ``builder_mismatches``
(``tests/sim/test_script_builders.py``: both builders against their
per-request oracles); the compiler's step memo keyed by fetch name
instead of step object by the topology differential, whose sim-core
cases fetch one name both private and public.

Two mutants sit on the paths from a trace to its Fig. 5 numbers, each
killed by the replay differential (``validate_replay_differential``:
every trace representation through ``run_replay_sweep`` against
``replay()`` of the generator stream, which no interning pass touches).
The interner merging two content ids fails every (leg, case) pair; the
grid's trigger rule dropped (a public request between two private ones
no longer ends a run of private hits) fails the grid cases of every leg.

Two mutants sit on compiling a streamed trace.  The generator's
batched ``uris_of`` pairing each key with the site of the key before it
is killed by the ``uris`` digest of ``tests/workload/test_trace_digests.py``
(``uniform_64``); a shard digest taken as the file is written that skips
the ``.npy`` header by both ``as_written_mismatches`` and
``test_verify_passes_then_catches_corruption``
(``tests/workload/test_sharded.py``), whose fresh directory no longer
verifies.

Two mutants sit on the attack harnesses' registry shapes, each killed
by ``golden_harness_tallies.json`` (``tests/validation/test_harness_golden.py``,
recorded while both shapes were still built by hand): the defense tree
arming the static preset's rate limit on the core R0 as well as on the
edges changes the ``static`` runs, and the overload star's silent
``/flood`` producer answering the flood changes every overload config.

Each check's verdict on the unmutated code is computed once per session
(``_UNMUTATED``), so the table runs each differential unmutated once, not
once per mutant, while a lone ``-k`` run still asserts it.

Two mutants sit on the Fig. 5 grid's per-point draws and columns.  The
geometric block without its near-integer fix-up is killed by
``TestGeometricBoundaries``' draws (uniforms whose quotient lands on an
integer, compared with scalar ``sample``); the flag memo keyed without
``fraction`` by the memo test in ``tests/workload/test_lru_grid.py``
(two fractions of one salt on one trace against ``fast_replay``, which
does not read the memo).
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.core.privacy.distributions import TruncatedGeometric
from repro.ndn import packets, topology
from repro.ndn.apps import consumer as consumer_app
from repro.ndn.apps.interactive import InteractiveEndpoint
from repro.ndn.link import Link
from repro.sim import batch
from repro.sim import workload_driver
from repro.sim.batch import compile as batch_compile, kernel
from repro.sim.batch.compile import CompiledTopology
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.validation.differential import (
    validate_replay_differential,
    validate_topology_differential,
)
from repro.workload import compiled, ircache, lru_grid, sharded
from repro.workload.compiled import CompiledTrace
from repro.workload.ircache import IrcacheConfig
from repro.workload.zipf import ZipfSampler

from tests.core.test_distributions import geometric_boundary_mismatches
from tests.deploy import test_daemon, test_endpoints
from tests.integration.test_interactive_golden import grid_keys, session_mismatches
from tests.ndn import test_link
from tests.ndn.test_apps import late_data_mismatches
from tests.ndn.test_packets import hop_copy_mismatches
from tests.sim import test_engine, test_process
from tests.sim.test_rebind import rebind_mismatches
from tests.sim.test_script_builders import builder_mismatches
from tests.validation.test_harness_golden import defense_mismatches, overload_mismatches
from tests.workload.test_ircache import narrow_sort_mismatches
from tests.workload.test_lru_grid import fraction_memo_mismatches
from tests.workload.test_sharded import (
    as_written_mismatches,
    test_verify_passes_then_catches_corruption,
)
from tests.workload.test_trace_digests import CONFIGS, GOLDEN, _digests
from tests.workload.test_zipf import searchsorted_mismatches


def _mutated(owner, attribute: str, old: str, new: str):
    """``owner.attribute`` recompiled from its source with ``old`` -> ``new``."""
    function = inspect.unwrap(getattr(owner, attribute))
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{attribute}: edit site not found once"
    namespace = dict(vars(sys.modules[function.__module__]))
    exec(compile(source.replace(old, new), f"<mutant {attribute}>", "exec"), namespace)
    return namespace[function.__name__]


def _fails(test) -> bool:
    try:
        test()
    except AssertionError:
        return True
    return False


def _differential_fails(monkeypatch) -> bool:
    return not validate_topology_differential().ok


def _replay_differential_fails(monkeypatch) -> bool:
    return not validate_replay_differential().ok


def _hop_copy_lossy(monkeypatch) -> bool:
    return bool(hop_copy_mismatches())


def _blackhole_delivers(monkeypatch) -> bool:
    try:
        blackhole = test_link.TestFaultSurface()
        blackhole.test_blackhole_link_accepted_and_drops_everything(Engine())
    except AssertionError:
        return True
    return False


def _until_overrun(monkeypatch) -> bool:
    controls = test_engine.TestRunControl()
    try:
        controls.test_run_until_stops_clock_at_horizon(Engine())
        controls.test_run_until_leaves_future_events_pending(Engine())
    except AssertionError:
        return True
    return False


def _stale_wait_resumes(monkeypatch) -> bool:
    try:
        waits = test_process.TestWaitSignal()
        waits.test_stale_signal_does_not_resume_a_later_wait(Engine())
    except AssertionError:
        return True
    return False


def _late_data_misread(monkeypatch) -> bool:
    return bool(late_data_mismatches())


def _no_route_retried(monkeypatch) -> bool:
    return _fails(test_endpoints.test_matching_nack_aborts_and_no_route_fails_fast)


def _lifetime_unclamped(monkeypatch) -> bool:
    return _fails(test_daemon.test_deadline_propagates_into_interest_lifetime)


def _later_prefix_wins(monkeypatch) -> bool:
    return _fails(test_endpoints.test_earlier_prefix_waiter_wins_over_later_exact_waiter)


def _interactive_golden_differs(monkeypatch) -> bool:
    return bool(session_mismatches(grid_keys("nacking", "jitter")))


def _zipf_inexact(monkeypatch) -> bool:
    # 4 000 ranks at exponent 1 fill bins up to 9 points wide; 64 uniform
    # ranks put every cdf value on a bin edge.
    return searchsorted_mismatches(4_000, 1.0) + searchsorted_mismatches(64, 0.0) > 0


def _narrow_sort_inexact(monkeypatch) -> bool:
    return bool(narrow_sort_mismatches(65_537))


def _geometric_block_inexact(monkeypatch) -> bool:
    return bool(geometric_boundary_mismatches())


def _flag_memo_stale(monkeypatch) -> bool:
    return bool(fraction_memo_mismatches())


def _rebind_diverges(monkeypatch) -> bool:
    return bool(rebind_mismatches())


def _uri_digest_differs(monkeypatch) -> bool:
    uris = _digests(IrcacheConfig(**CONFIGS["uniform_64"]))["uris"]
    return uris != GOLDEN["uniform_64"]["uris"]


def _shard_digests_off(monkeypatch) -> bool:
    # Both checks must fail: the digest test, and verify() refusing the
    # fresh, uncorrupted directory.
    with tempfile.TemporaryDirectory() as ours, tempfile.TemporaryDirectory() as other:
        if not as_written_mismatches(Path(ours)):
            return False
        try:
            test_verify_passes_then_catches_corruption(Path(other))
        except (AssertionError, sharded.ShardIntegrityError):
            return True
    return False


def _builder_off_oracle(monkeypatch) -> bool:
    return bool(builder_mismatches())


def _static_golden_differs(monkeypatch) -> bool:
    return bool(defense_mismatches("static"))


def _overload_golden_differs(monkeypatch) -> bool:
    return bool(overload_mismatches())


MUTANTS = {
    # The grid's only scoped interests (scope 2) are never forwarded, so
    # a dropped scope shows in the copy's fields, not in the differential.
    "hop copy drops scope": (
        packets, "_hop_copy",
        'state["hops"] = hops', "state.update(hops=hops, scope=None)",
        _hop_copy_lossy,
    ),
    "hop copy drops private": (
        packets, "_hop_copy",
        'state["hops"] = hops', "state.update(hops=hops, private=False)",
        _differential_fails,
    ),
    # The link's one loss test: no differential case loses packets (the
    # batch compiler refuses a lossy link), so a blackhole link kills it.
    "link skips the loss draw": (
        Link, "transmit",
        "self.loss_rate > 0.0", "self.loss_rate > 1.0",
        _blackhole_delivers,
    ),
    "loop fires a cancelled entry": (
        Engine, "run",
        "event is not None and event.state is cancelled", "False",
        _differential_fails,
    ),
    "loop ignores until": (
        Engine, "run",
        "if time > horizon:", "if False:",
        _until_overrun,
    ),
    "stale wait token accepted": (
        Process, "_wait_signalled",
        "token != self._wait", "self._wait is None",
        _stale_wait_resumes,
    ),
    # The fetch loop's two ways back: a timed-out attempt must withdraw
    # its record (else late Data resolves the fetch again), and a Nacked
    # one must wait out its back-off (the Nacked, retried overload runs).
    "timed-out fetch keeps its pending record": (
        consumer_app._Fetch, "_timed_out",
        "self.consumer._cancel_pending(self.interest[0], self)", "pass",
        _late_data_misread,
    ),
    "answered fetch leaves its timeout armed": (
        consumer_app._Fetch, "trigger",
        "self.timer.cancel()", "pass",
        _late_data_misread,
    ),
    "Nacked fetch retries without its back-off": (
        consumer_app._Fetch, "trigger",
        "self.timer = self.consumer.engine.schedule(backoff, self._retry)",
        "self._retry()",
        _overload_golden_differs,
    ),
    # The daemon's consumer is this loop on the real-time engine: its
    # socket tests pin the rules no simulator golden reaches.
    "no-route Nack retried instead of failing fast": (
        consumer_app._Fetch, "trigger",
        "if payload.reason == NACK_NO_ROUTE:", "if False:",
        _no_route_retried,
    ),
    "attempt's lifetime not clamped to the deadline": (
        consumer_app._Fetch, "_send",
        "lifetime = max(wait, 1.0)", "pass",
        _lifetime_unclamped,
    ),
    "Data matched to the latest-registered pending prefix": (
        consumer_app.Consumer, "receive_data",
        "waiters.rank < match.rank", "waiters.rank > match.rank",
        _later_prefix_wins,
    ),
    # A frame is retransmitted iff the attempt that answered it is not
    # the first; the interactive golden pins the flag of every frame.
    "frame marked retransmitted on its first attempt": (
        InteractiveEndpoint, "run_session",
        "retransmitted=result.send_time != send_time",
        "retransmitted=result.send_time >= send_time",
        _interactive_golden_differs,
    ),
    "guide-table resolve runs one pass short": (
        ZipfSampler, "sample",
        "range(passes)", "range(passes - 1)",
        _zipf_inexact,
    ),
    "guide table counts cdf <= j/m": (
        ZipfSampler, "_guide_table",
        'side="left"', 'side="right"',
        _zipf_inexact,
    ),
    # sharded.py binds _occurrence_index, which looks _stable_order up in
    # compiled's namespace; ircache binds its own copy of the name.
    "16-bit sort keys past 65 536": (
        (compiled, ircache), "_stable_order",
        "bound <= 65_536", "bound <= 65_537",
        _narrow_sort_inexact,
    ),
    "near-integer fix-up skipped": (
        TruncatedGeometric, "sample_array",
        "if near.size:", "if False:",
        _geometric_block_inexact,
    ),
    "interner merges two content ids": (
        sharded, "_intern_pass",
        "cids32 = cids.astype(np.int32)",
        "cids32 = np.where(cids == 1, 0, cids).astype(np.int32)",
        _replay_differential_fails,
    ),
    "grid trigger rule dropped": (
        lru_grid, "_private_runs",
        "np.not_equal(at[1:], at[:-1] + 1, out=stop[1:-1])", "stop[1:-1] = False",
        _replay_differential_fails,
    ),
    # The generator's one batched decoding: a key paired with its
    # predecessor's site renames objects, which the URI digests pin.
    "generator URIs take the previous key's site": (
        ircache.IrcacheStream, "uris_of",
        "sites = self._sites()[keys].tolist()",
        "sites = np.roll(self._sites()[keys], 1).tolist()",
        _uri_digest_differs,
    ),
    # A shard file hashed as it is written: its digest must cover the
    # .npy header too, or the manifest disagrees with every file.
    "shard digest skips the .npy header": (
        sharded._ShardWriter, "_flush",
        "digest = hashlib.sha256(header.getvalue())",
        "digest = hashlib.sha256()",
        _shard_digests_off,
    ),
    "flag memo keyed without fraction": (
        CompiledTrace, "grid_flags",
        "key = (str(rule.salt), rule.fraction)", "key = (str(rule.salt),)",
        _flag_memo_stale,
    ),
    # The second point rebound from one shape draws from streams the
    # first consumed; the first alone would match.
    "rebind reuses the shape's link streams": (
        CompiledTopology, "rebind",
        "link_streams=[", "link_streams=self.link_streams or [",
        _rebind_diverges,
    ),
    "rebind puts the scheme on every router": (
        CompiledTopology, "rebind",
        "place_scheme(scheme, router.name, probe)", "place_scheme(scheme, probe, probe)",
        _rebind_diverges,
    ),
    "rebind carries count_origin_hops from the shape": (
        CompiledTopology, "rebind",
        "count_origin_hops=any(counts_origin_hops(s) for s in strategies)",
        "count_origin_hops=self.count_origin_hops",
        _rebind_diverges,
    ),
    # Steps are shared values.  A driver memo that ignores the private
    # flag hands a fetch the step of the same name with the other flag;
    # a compile memo keyed by name lowers every fetch of a name as its
    # first one (the grid's sim-core cases fetch each name both private
    # and public).
    "driver fetch memo keyed without private": (
        workload_driver, "scripts_from_workload",
        "fetch = fetches.get(code)", "fetch = fetches.get(code) or fetches.get(code ^ 1)",
        _builder_off_oracle,
    ),
    "compile memo lowers a fetch by name alone": (
        batch_compile, "_intern_vocabulary",
        'lowered[key] = ("F", nid, step.timeout, step.lifetime, bool(step.private))',
        'lowered[key] = lowered.setdefault(step.name, ("F", nid, step.timeout, '
        "step.lifetime, bool(step.private)))",
        _differential_fails,
    ),
    # The harnesses build their shapes through TOPOLOGIES, which binds
    # the builders the module defines.
    "defense tree rate-limits the core too": (
        (topology, topology.TOPOLOGIES), "defense_tree",
        'add_router("R0", rate_limit=None)', 'add_router("R0")',
        _static_golden_differs,
    ),
    "overload star's flood producer answers": (
        (topology, topology.TOPOLOGIES), "overload_star",
        'net.add_producer("f", "/flood", auto_generate=False)',
        'net.add_producer("f", "/flood", auto_generate=True)',
        _overload_golden_differs,
    ),
    # repro.sim.batch re-exports run_compiled for run_scripts; the
    # kernel module binds it for run_scripts_batch.
    "timer lane takes every timer": (
        (kernel, batch), "run_compiled",
        "not lane or lane[-1] < timer", "True",
        _differential_fails,
    ),
    "loop prefers the lane head over a smaller heap head": (
        (kernel, batch), "run_compiled",
        "not q or lane[0] < q[0]", "True",
        _differential_fails,
    ),
    "loop fires a cancelled lane head": (
        (kernel, batch), "run_compiled",
        "entry = popleft()", "entry = popleft(); cancelled.discard(entry[1])",
        _differential_fails,
    ),
}


#: Each check's verdict on the unmutated code, filled on first use.
_UNMUTATED = {}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_is_killed(mutant, monkeypatch):
    owner, attribute, old, new, check = MUTANTS[mutant]
    owners = owner if isinstance(owner, tuple) else (owner,)
    if check not in _UNMUTATED:
        _UNMUTATED[check] = check(monkeypatch)
    assert not _UNMUTATED[check], "the check fails without the mutant"
    mutated = _mutated(owners[0], attribute, old, new)
    for module in owners:
        if isinstance(module, dict):
            monkeypatch.setitem(module, attribute, mutated)
        else:
            monkeypatch.setattr(module, attribute, mutated)
    assert check(monkeypatch), f"{mutant!r} survived"
