"""Command-line interface: regenerate any paper figure from a shell.

Usage (installed as ``repro-experiments``, or ``python -m repro.cli``):

    repro-experiments fig3 fig3a_lan
    repro-experiments fig3 --all
    repro-experiments fig4a --k 1 --delta 0.05
    repro-experiments fig4b --k 5
    repro-experiments fig5a --requests 100000
    repro-experiments fig5b --requests 100000 --sizes 2000 8000 inf
    repro-experiments amplification --p 0.59 --fragments 8
    repro-experiments trace --requests 50000 --out trace.tsv
    repro-experiments validate --requests 2000
    repro-experiments strategy --topologies fig3a_lan fat_tree
    repro-experiments defend --attacks pollution flood adaptive

Each command prints the same rows/series the corresponding paper figure
plots; ``trace`` streams a synthetic IRCache-style trace to a TSV file
(the import/export format: ``compile_workload(TsvWorkload(path))`` reads
it back as a compiled trace, the one in-RAM trace representation).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.experiments import (
    FIG5_CACHE_SIZES,
    run_amplification,
    run_fig3,
    run_fig4a,
    run_fig4b,
    run_fig5a,
    run_fig5b,
)
from repro.core.schemes.registry import SchemeSpec, describe
from repro.defense import defense_transparency_mismatches
from repro.ndn.topology import FIG3_PANELS
from repro.validation import (
    OVERLOAD_CONFIGS,
    DifferentialReport,
    validate_differential,
    validate_overload,
    validate_streaming_differential,
)
from repro.validation.differential import (
    CaseResult,
    small_validation_trace,
    validate_topology_differential,
)
from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
from repro.workload.streaming import save_tsv

#: Everything ``validate`` runs, in order: name -> check(seed, requests)
#: returning a report.  Conservation laws A-D over the overload
#: configurations, then each fast path against its oracle.
VALIDATION_CHECKS: Dict[str, Callable[[int, int], DifferentialReport]] = {
    **{
        f"invariants [{config}]": (
            lambda seed, requests, config=config: validate_overload(
                config, seed=seed + 7
            )
        )
        for config in OVERLOAD_CONFIGS
    },
    "differential": lambda seed, requests: validate_differential(
        trace=small_validation_trace(requests=requests, seed=seed), seed=seed
    ),
    "topology differential": lambda seed, requests: (
        validate_topology_differential(seed=seed)
    ),
    "streaming differential": lambda seed, requests: (
        validate_streaming_differential(seed=seed, requests=min(requests, 2500))
    ),
    "defense transparency": lambda seed, requests: DifferentialReport(
        [
            CaseResult(
                "off vs monitor, benign + attacked",
                defense_transparency_mismatches(seed=seed),
            )
        ]
    ),
}


def _parse_sizes(tokens: Optional[List[str]]):
    if not tokens:
        return FIG5_CACHE_SIZES
    sizes = []
    for token in tokens:
        if token.lower() in ("inf", "none", "unlimited"):
            sizes.append(None)
        else:
            sizes.append(int(token))
    return tuple(sizes)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate figures from 'Cache Privacy in NDN' (ICDCS 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", help="timing-attack RTT distributions")
    fig3.add_argument("setting", nargs="?", choices=FIG3_PANELS,
                      help="one panel (default: all four)")
    fig3.add_argument("--all", action="store_true", help="run all four panels")
    fig3.add_argument("--objects", type=int, default=60)
    fig3.add_argument("--trials", type=int, default=6)
    fig3.add_argument("--seed", type=int, default=0)

    fig4a = sub.add_parser("fig4a", help="utility vs requests at fixed delta")
    fig4a.add_argument("--k", type=int, default=1)
    fig4a.add_argument("--delta", type=float, default=0.05)
    fig4a.add_argument("--epsilons", type=float, nargs="+",
                       default=[0.03, 0.04, 0.05])
    fig4a.add_argument("--c-max", type=int, default=100)

    fig4b = sub.add_parser("fig4b", help="max utility difference vs delta")
    fig4b.add_argument("--k", type=int, default=1)
    fig4b.add_argument("--deltas", type=float, nargs="+",
                       default=[0.01, 0.03, 0.05])
    fig4b.add_argument("--c-max", type=int, default=100)

    for name, help_text in (
        ("fig5a", "hit rate vs cache size per scheme"),
        ("fig5b", "exponential scheme vs private share"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--requests", type=int, default=100_000)
        p.add_argument("--sizes", nargs="+", default=None,
                       help="cache sizes; use 'inf' for unlimited")
        p.add_argument("--k", type=int, default=5)
        p.add_argument("--epsilon", type=float, default=0.005)
        p.add_argument("--delta", type=float, default=0.01)
        p.add_argument("--seed", type=int, default=0)
        if name == "fig5a":
            p.add_argument("--private-fraction", type=float, default=0.2)
        else:
            p.add_argument("--private-fractions", type=float, nargs="+",
                           default=[0.05, 0.10, 0.20, 0.40])

    amp = sub.add_parser("amplification", help="1-(1-p)^n table")
    amp.add_argument("--p", type=float, default=0.59)
    amp.add_argument("--fragments", type=int, default=16)

    trace = sub.add_parser("trace", help="generate a synthetic IRCache trace")
    trace.add_argument("--requests", type=int, default=100_000)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", required=True, help="output TSV path")

    validate = sub.add_parser(
        "validate",
        help="run invariant + differential validation; exit 1 on any failure",
    )
    validate.add_argument("--requests", type=int, default=2000,
                          help="trace length for the differential cross-check")
    validate.add_argument("--seed", type=int, default=0)

    strategy = sub.add_parser(
        "strategy",
        help="privacy-vs-placement frontier: caching strategy x scheme x "
             "topology sweep",
    )
    strategy.add_argument("--topologies", nargs="+",
                          default=["fig3a_lan", "fat_tree"],
                          help="topology names (any key of "
                               "repro.ndn.topology.TOPOLOGIES)")
    strategy.add_argument("--schemes", nargs="+", default=None,
                          help="privacy schemes (default: no-privacy, "
                               "uniform, exponential)")
    strategy.add_argument("--strategies", nargs="+", default=None,
                          help="caching strategies (default: every "
                               "registered kind)")
    strategy.add_argument("--trials", type=int, default=2,
                          help="fresh topologies per sweep point")
    strategy.add_argument("--targets", type=int, default=20,
                          help="probe targets per trial (half hot, half cold)")
    strategy.add_argument("--cache-capacity", type=int, default=32,
                          help="per-router CS capacity (0 = unlimited)")
    strategy.add_argument("--seed", type=int, default=0)
    strategy.add_argument("--out", default="strategy_frontier.json",
                          help="frontier JSON artifact path")

    defend = sub.add_parser(
        "defend",
        help="closed defense loop: detection frontier sweep "
             "(defense preset x attack)",
    )
    defend.add_argument("--defenses", nargs="+", default=None,
                        help="defense presets (default: off, static, "
                             "monitor, adaptive)")
    defend.add_argument("--attacks", nargs="+", default=None,
                        help="attacks to drive (default: pollution, flood, "
                             "adaptive)")
    defend.add_argument("--seed", type=int, default=0)
    defend.add_argument("--out", default="defense_frontier.json",
                        help="frontier JSON artifact path")

    deploy = sub.add_parser(
        "deploy",
        help="real-socket deployment mode (geo differential, soak, daemon)",
    )
    deploy_sub = deploy.add_subparsers(dest="deploy_command", required=True)

    geo = deploy_sub.add_parser(
        "geo",
        help="CDN/VPN geo scenario on loopback: sim-vs-socket differential",
    )
    geo.add_argument("--schemes", nargs="+",
                     default=["no-privacy", "uniform"],
                     help="privacy schemes to compare at the edge cache")
    geo.add_argument("--seed", type=int, default=7)
    geo.add_argument("--requests", type=int, default=60)
    geo.add_argument("--probes", type=int, default=12)
    geo.add_argument("--catalog", type=int, default=24)

    soak = deploy_sub.add_parser(
        "soak",
        help="hostile-conditions soak: malformed/mgmt/interest floods, "
             "producer crash, invariant audit",
    )
    soak.add_argument("--seed", type=int, default=11)
    soak.add_argument("--scheme", default="uniform")
    soak.add_argument("--background", type=int, default=40)
    soak.add_argument("--malformed", type=int, default=300)
    soak.add_argument("--mgmt-garbage", type=int, default=50)
    soak.add_argument("--flood", type=int, default=200)
    soak.add_argument("--loss", type=float, default=0.15)

    daemon_cmd = deploy_sub.add_parser(
        "daemon",
        help="run one supervised forwarder daemon in the foreground "
             "(SIGTERM/SIGINT drain-then-close)",
    )
    daemon_cmd.add_argument("--name", default="ndn-daemon")
    daemon_cmd.add_argument("--scheme", default="no-privacy",
                            help="privacy scheme (swap live via mgmt channel)")
    daemon_cmd.add_argument("--defense", default=None,
                            choices=["off", "static", "monitor", "adaptive"],
                            help="online defense preset (swap live via the "
                                 "mgmt 'defense' command)")
    daemon_cmd.add_argument("--seed", type=int, default=0)
    daemon_cmd.add_argument("--listen", action="append", default=[],
                            metavar="HOST:PORT",
                            help="bind a UDP face (repeatable; default one "
                                 "ephemeral loopback face)")
    daemon_cmd.add_argument("--mgmt", default="127.0.0.1:0",
                            metavar="HOST:PORT",
                            help="TCP management channel bind address")
    daemon_cmd.add_argument("--route", action="append", default=[],
                            metavar="PREFIX=FACE_INDEX",
                            help="install a route toward the Nth --listen "
                                 "face (repeatable)")

    report = sub.add_parser(
        "report", help="run every figure and write a markdown report"
    )
    report.add_argument("--out", required=True, help="output markdown path")
    report.add_argument("--requests", type=int, default=100_000,
                        help="trace length for the Figure 5 replays")
    report.add_argument("--objects", type=int, default=60,
                        help="probed objects per Figure 3 trial")
    report.add_argument("--trials", type=int, default=6,
                        help="trials per Figure 3 panel")
    report.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "fig3":
        settings = FIG3_PANELS if args.all or not args.setting else [args.setting]
        engines = {}
        for setting in settings:
            result = run_fig3(
                setting,
                objects_per_trial=args.objects,
                trials=args.trials,
                seed=args.seed,
            )
            engines[setting] = result.engine
            print(result.render())
            print()
        print(_engine_summary("panels", engines))
        return 0

    if args.command == "fig4a":
        result = run_fig4a(args.k, delta=args.delta, epsilons=args.epsilons,
                           c_max=args.c_max)
        print(result.render())
        return 0

    if args.command == "fig4b":
        result = run_fig4b(args.k, deltas=args.deltas, c_max=args.c_max)
        print(result.render())
        for delta in args.deltas:
            print(f"max difference (delta={delta}): "
                  f"{result.max_difference(delta):.4f}")
        return 0

    if args.command == "fig5a":
        result = run_fig5a(
            IrcacheConfig(requests=args.requests, seed=args.seed),
            cache_sizes=_parse_sizes(args.sizes),
            k=args.k, epsilon=args.epsilon, delta=args.delta,
            private_fraction=args.private_fraction, seed=args.seed, sharded=True,
        )
        _print_scheme_headers(result.schemes)
        print(result.render())
        return 0

    if args.command == "fig5b":
        result = run_fig5b(
            IrcacheConfig(requests=args.requests, seed=args.seed),
            cache_sizes=_parse_sizes(args.sizes),
            k=args.k, epsilon=args.epsilon, delta=args.delta,
            private_fractions=args.private_fractions, seed=args.seed, sharded=True,
        )
        _print_scheme_headers(result.schemes)
        print(result.render())
        return 0

    if args.command == "amplification":
        result = run_amplification(args.p, max_fragments=args.fragments)
        print(result.render())
        return 0

    if args.command == "trace":
        requests, objects, users = save_tsv(
            IrcacheGenerator(
                IrcacheConfig(requests=args.requests, seed=args.seed)
            ).stream(),
            args.out,
        )
        print(
            f"wrote {requests} requests ({objects} objects, "
            f"{users} users) to {args.out}"
        )
        return 0

    if args.command == "validate":
        return _run_validate(args)

    if args.command == "strategy":
        return _run_strategy(args)

    if args.command == "defend":
        return _run_defend(args)

    if args.command == "deploy":
        return _run_deploy(args)

    if args.command == "report":
        _write_report(args)
        print(f"wrote reproduction report to {args.out}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _run_validate(args) -> int:
    """Run every :data:`VALIDATION_CHECKS` entry; 0 only when all hold."""
    failed = False
    for name, check in VALIDATION_CHECKS.items():
        report = check(args.seed, args.requests)
        print(f"{name}: {report.status()}")
        for failure in report.failures:
            failed = True
            print(f"  - {failure.label}: " + "; ".join(failure.mismatches[:20]))
    print("validation", "FAILED" if failed else "passed")
    return 1 if failed else 0


def _print_scheme_headers(specs) -> None:
    """One line per scheme a command runs: its spec and its guarantee."""
    for spec in specs:
        print(describe(spec))


def _engine_summary(what: str, engines) -> str:
    """One line saying which simulation engine ran: ``engines`` maps a
    label to ``"batch"`` or ``"reference: <why the compiler refused>"``."""
    fallbacks = [
        f"{label} ({engine})"
        for label, engine in engines.items()
        if engine != "batch"
    ]
    line = (
        f"engine: {len(engines) - len(fallbacks)}/{len(engines)} {what} "
        f"on the batch kernel"
    )
    if fallbacks:
        line += "; fell back: " + "; ".join(fallbacks)
    return line


def _write_artifact(frontier, out: str) -> None:
    """Write a frontier's ``to_dict()`` as sorted JSON and print the path."""
    path = Path(out)
    path.write_text(
        json.dumps(frontier.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote frontier artifact to {path}")


def _run_strategy(args) -> int:
    """Privacy-vs-placement frontier sweep; writes the frontier artifact."""
    from repro.analysis.placement import (
        SWEEP_SCHEMES,
        SWEEP_STRATEGIES,
        run_placement_sweep,
    )

    capacity = args.cache_capacity if args.cache_capacity > 0 else None
    schemes = args.schemes if args.schemes else SWEEP_SCHEMES
    strategies = args.strategies if args.strategies else SWEEP_STRATEGIES
    _print_scheme_headers(SchemeSpec(name) for name in schemes)
    frontier = run_placement_sweep(
        topologies=args.topologies,
        schemes=schemes,
        strategies=strategies,
        trials=args.trials,
        targets_per_trial=args.targets,
        cache_capacity=capacity,
        seed=args.seed,
    )
    print(frontier.render())
    best = frontier.best_privacy()
    print(
        f"\nbest privacy point: {best.topology}/{best.scheme}/{best.strategy} "
        f"(accuracy {best.probe_accuracy:.3f}, u(c) {best.utility:.3f})"
    )
    print(
        _engine_summary(
            "points",
            {
                f"{p.topology}/{p.scheme}/{p.strategy}": p.engine
                for p in frontier.points
            },
        )
    )
    _write_artifact(frontier, args.out)
    return 0


def _run_defend(args) -> int:
    """Detection-frontier sweep; writes the frontier artifact."""
    from repro.analysis.defense import SWEEP_ATTACKS, run_defense_sweep
    from repro.defense import DEFENSE_PRESETS

    defenses = args.defenses if args.defenses else list(DEFENSE_PRESETS)
    attacks = args.attacks if args.attacks else list(SWEEP_ATTACKS)
    frontier = run_defense_sweep(
        defenses=defenses,
        attacks=attacks,
        seed=args.seed,
    )
    print(frontier.render())
    for attack in attacks:
        best = frontier.best_defense(attack)
        latency = (
            f"{best.detection_latency:.1f}ms"
            if best.detection_latency is not None
            else "n/a"
        )
        print(
            f"\nbest vs {attack}: {best.defense} "
            f"(attack success {best.attack_success:.3f}, "
            f"detection latency {latency})"
        )
    print()
    _write_artifact(frontier, args.out)
    return 0


def _run_deploy(args) -> int:
    """Real-socket deployment commands: geo differential, soak, daemon."""
    if args.deploy_command == "geo":
        return _run_deploy_geo(args)
    if args.deploy_command == "soak":
        return _run_deploy_soak(args)
    if args.deploy_command == "daemon":
        return _run_deploy_daemon(args)
    raise AssertionError(f"unhandled deploy command {args.deploy_command!r}")


def _run_deploy_geo(args) -> int:
    from repro.deploy import GeoSpec, differential, run_geo_sim, run_geo_socket
    from repro.deploy.daemon import daemon_scheme

    _print_scheme_headers(daemon_scheme(name) for name in args.schemes)
    failed = False
    for scheme in args.schemes:
        spec = GeoSpec(
            seed=args.seed,
            scheme=scheme,
            requests=args.requests,
            probes=args.probes,
            catalog_size=args.catalog,
        )
        socket_result, sim_result = run_geo_socket(spec), run_geo_sim(spec)
        for result in (socket_result, sim_result):
            print(f"[{scheme}] {result.mode + ':':8}{result.summary()}")
            failed |= bool(result.violations)
            for violation in result.violations:
                print(f"  violation: {violation}")
        mismatches = differential(sim_result, socket_result)
        if mismatches:
            failed = True
            print(f"[{scheme}] DIFFERENTIAL FAILED: {len(mismatches)} mismatch(es)")
            for mismatch in mismatches[:20]:
                print(f"  - {mismatch}")
        else:
            print(
                f"[{scheme}] differential ok: {len(sim_result.decisions)} "
                f"decisions and {len(sim_result.probe_verdicts)} probe "
                f"verdicts identical"
            )
    print("deploy geo", "FAILED" if failed else "passed")
    return 1 if failed else 0


def _run_deploy_soak(args) -> int:
    from repro.deploy import SoakSpec, run_soak

    spec = SoakSpec(
        seed=args.seed,
        scheme=args.scheme,
        background_fetches=args.background,
        malformed_packets=args.malformed,
        mgmt_garbage_lines=args.mgmt_garbage,
        flood_interests=args.flood,
        loss_rate=args.loss,
    )
    report = run_soak(spec)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    print("deploy soak", "passed" if report.ok else "FAILED")
    return 0 if report.ok else 1


def _parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _run_deploy_daemon(args) -> int:
    import asyncio

    from repro.deploy import DaemonConfig, ForwarderDaemon, Supervisor

    async def serve() -> int:
        daemon = ForwarderDaemon(
            DaemonConfig(
                name=args.name,
                seed=args.seed,
                scheme=args.scheme,
                defense=args.defense,
            )
        )
        supervisor = Supervisor(
            daemon,
            mgmt_host=_parse_hostport(args.mgmt)[0],
            mgmt_port=_parse_hostport(args.mgmt)[1],
        )
        await supervisor.start(install_signal_handlers=True)
        binds = args.listen or ["127.0.0.1:0"]
        faces = []
        for spec in binds:
            face = await daemon.add_udp_face(local=_parse_hostport(spec))
            faces.append(face)
            print(f"face {face.face_id} listening on {face.local_addr}")
        for route in args.route:
            prefix, _, index = route.partition("=")
            daemon.add_route(prefix, faces[int(index)].face_id)
            print(f"route {prefix} -> face {faces[int(index)].face_id}")
        print(f"mgmt channel on {supervisor.mgmt_addr} "
              f"(try: nc {supervisor.mgmt_addr[0]} {supervisor.mgmt_addr[1]})")
        print("serving; SIGTERM/SIGINT drains then exits")
        await supervisor.wait_closed()
        return 0

    return asyncio.run(serve())


def _write_report(args) -> None:
    """Run every figure at the requested scale; emit a markdown report."""
    sections = [
        "# Reproduction report — Cache Privacy in Named-Data Networking",
        "",
        f"Configuration: Figure 3 at {args.trials} trials x {args.objects} "
        f"objects; Figure 5 on a {args.requests}-request synthetic IRCache "
        f"trace; seed {args.seed}.",
        "",
    ]

    sections.append("## Figure 3 — timing attacks\n")
    producer_success = None
    for setting in FIG3_PANELS:
        result = run_fig3(
            setting, objects_per_trial=args.objects, trials=args.trials,
            seed=args.seed,
        )
        if setting == "fig3c_wan_producer":
            producer_success = result.bayes_success
        sections.append(
            f"**{setting}** — {result.description}: Bayes success "
            f"{result.bayes_success:.4f} (hit mean {result.hit_mean:.2f} ms, "
            f"miss mean {result.miss_mean:.2f} ms).\n"
        )

    sections.append("## Section III — amplification\n")
    amp = run_amplification(producer_success, max_fragments=8)
    sections.append("```\n" + amp.render() + "\n```\n")

    sections.append("## Figure 4 — Random-Cache utility\n")
    for k in (1, 5):
        fig4b = run_fig4b(k)
        peaks = ", ".join(
            f"delta={d}: {fig4b.max_difference(d):.4f}" for d in (0.01, 0.03, 0.05)
        )
        sections.append(f"**k={k}** peak utility differences: {peaks}.\n")
    sections.append("```\n" + run_fig4a(1).render() + "\n```\n")

    sections.append("## Figure 5 — trace-replay hit rates\n")
    config = IrcacheConfig(requests=args.requests, seed=args.seed)
    for run in (run_fig5a, run_fig5b):
        sections.append("```\n" + run(config, sharded=True).render() + "\n```\n")

    Path(args.out).write_text("\n".join(sections), encoding="utf-8")


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        raise SystemExit(0)
