"""``frontier_sweep`` — the headline experiments on the reference engine.

The placement frontier (72 points), the closed-loop defense frontier
(6 points over all three attacks) and the four Fig. 3 panels: topology
build + attack procedure + ``Engine.run`` + defense hooks, with small
name sets.  A batch-kernel win must show nothing here; routing these
sweeps through the batch kernel must show here and nowhere else.
"""

from __future__ import annotations

from benchmarks.ledger.harness import Samples, Tracer, Workload
from repro.analysis.defense import SWEEP_ATTACKS, run_defense_sweep
from repro.analysis.experiments import run_fig3
from repro.analysis.placement import (
    SWEEP_SCHEMES,
    SWEEP_TOPOLOGIES,
    run_placement_sweep,
)

TOPOLOGIES = ("fig3a_lan", "fat_tree", "rocketfuel", "geant")
DEFENSES = ("off", "adaptive")
PANELS = {
    "a": "fig3a_lan",
    "b": "fig3b_wan",
    "c": "fig3c_wan_producer",
    "d": "fig3d_local_host",
}
PLACEMENT_TRIALS = 1
PLACEMENT_TARGETS = 20
DEFENSE_HORIZON_MS = 3000.0
FIG3_OBJECTS = 60
FIG3_TRIALS = 3
#: Without a privacy scheme the LAN probe must work.  It is 1.0 for 93%
#: of seeds at 20 targets and never under 0.85 in 300 seeds; the driver
#: picks the seed, so the gate is not "exactly 1.0".
MIN_BASELINE_ACCURACY = 0.75


class FrontierSweep(Workload):
    name = "frontier_sweep"
    end_to_end = (
        "placement_points_per_s",
        "defense_points_per_s",
        "fig3_panels_per_s",
    )
    per_layer = (
        *(f"ndn.topology.build_ms.{topology}" for topology in TOPOLOGIES),
        *(f"analysis.placement.points_per_s.{topology}" for topology in TOPOLOGIES),
        *(f"analysis.defense.points_per_s.{attack}" for attack in SWEEP_ATTACKS),
        *(f"defense.overhead_share.{attack}" for attack in SWEEP_ATTACKS),
        "analysis.defense.false_alarms",
        *(f"analysis.experiments.fig3_s.{panel}" for panel in PANELS),
        *(f"attacks.timing.probe_accuracy.{scheme}" for scheme in SWEEP_SCHEMES),
    )

    def setup(self, tr: Tracer, out: Samples) -> None:
        div = self.div
        self.placement = dict(
            trials=PLACEMENT_TRIALS,
            targets_per_trial=max(4, PLACEMENT_TARGETS // div),
            seed=self.seed,
        )
        self.defense = self._defense_window(DEFENSE_HORIZON_MS / div)
        self.fig3 = dict(
            objects_per_trial=max(4, FIG3_OBJECTS // div),
            trials=max(2, FIG3_TRIALS // div),
            seed=self.seed,
        )
        # Warm-up: the cheapest corner of each sweep.
        run_placement_sweep(
            topologies=TOPOLOGIES, schemes=("uniform",), strategies=("lce",),
            trials=1, targets_per_trial=2, seed=self.seed,
        )  # fmt: skip
        run_defense_sweep(
            defenses=DEFENSES,
            attacks=("pollution",),
            **self._defense_window(DEFENSE_HORIZON_MS / div / 8),
        )
        for setting in PANELS.values():
            run_fig3(setting, objects_per_trial=4, trials=1, seed=self.seed)

    def _defense_window(self, horizon: float) -> dict:
        """The default scenario's proportions: attack from 20% to 70%."""
        return dict(
            seed=self.seed,
            horizon=horizon,
            attack_start=0.2 * horizon,
            attack_end=0.7 * horizon,
        )

    # ------------------------------------------------------------------
    def _placement(self, tr: Tracer, out: Samples):
        """One sweep call untraced; one call per topology when traced
        (the same 72 points, a span each)."""
        groups = [(t,) for t in TOPOLOGIES] if tr.record else [TOPOLOGIES]
        points = []
        with tr.span("analysis.placement.sweep", group=True) as sweep:
            for group in groups:
                with tr.span(f"analysis.placement.{'+'.join(group)}") as span:
                    found = run_placement_sweep(topologies=group, **self.placement).points
                points += found
                if tr.record:
                    out.add(
                        f"analysis.placement.points_per_s.{group[0]}",
                        len(found) / span.net,
                    )
        out.add("placement_points_per_s", len(points) / sweep.net)
        return points

    def _defense(self, tr: Tracer, out: Samples):
        if tr.record:
            groups = [((d,), (a,)) for a in SWEEP_ATTACKS for d in DEFENSES]
        else:
            groups = [(DEFENSES, SWEEP_ATTACKS)]
        points = []
        walls = {}
        with tr.span("analysis.defense.sweep", group=True) as sweep:
            for defenses, attacks in groups:
                with tr.span(
                    f"analysis.defense.{'+'.join(defenses)}.{'+'.join(attacks)}"
                ) as span:
                    points += run_defense_sweep(
                        defenses=defenses, attacks=attacks, **self.defense
                    ).points
                walls[defenses[0], attacks[0]] = span.net
        out.add("defense_points_per_s", len(points) / sweep.net)
        if tr.record:
            for attack in SWEEP_ATTACKS:
                off, adaptive = walls["off", attack], walls["adaptive", attack]
                out.add(f"analysis.defense.points_per_s.{attack}", 2 / (off + adaptive))
                out.add(f"defense.overhead_share.{attack}", (adaptive - off) / off)
            out.add(
                "analysis.defense.false_alarms", sum(p.false_alarms for p in points)
            )
        return points

    def round(self, tr: Tracer, out: Samples) -> None:
        placed = self._placement(tr, out)
        for point in placed:
            self.checks.op(point.verdicts > 0, "a placement point has no verdicts")
        (baseline,) = (
            p.probe_accuracy
            for p in placed
            if (p.topology, p.scheme, p.strategy) == ("fig3a_lan", "no-privacy", "lce")
        )
        self.checks.gate(
            baseline >= MIN_BASELINE_ACCURACY,
            f"no-privacy/lce probe accuracy on fig3a_lan is {baseline}",
        )
        for point in self._defense(tr, out):
            self.checks.op(
                point.invariant_violations == 0,
                f"{point.defense}/{point.attack}: invariant violations",
            )
        with tr.span("analysis.experiments.fig3", group=True) as panels:
            for panel, setting in PANELS.items():
                with tr.span(f"analysis.experiments.fig3.{panel}") as span:
                    result = run_fig3(setting, **self.fig3)
                self.checks.op(
                    0.5 <= result.bayes_success <= 1.0,
                    f"fig3 panel {panel}: Bayes success {result.bayes_success}",
                )
                if tr.record:
                    out.add(f"analysis.experiments.fig3_s.{panel}", span.net)
        out.add("fig3_panels_per_s", len(PANELS) / panels.net)
        if not tr.record:
            return
        for scheme in SWEEP_SCHEMES:
            (accuracy,) = (
                p.probe_accuracy
                for p in placed
                if (p.topology, p.scheme, p.strategy) == ("fig3a_lan", scheme, "lce")
            )
            out.add(f"attacks.timing.probe_accuracy.{scheme}", accuracy)
        for topology in TOPOLOGIES:
            with tr.span(f"ndn.topology.build.{topology}") as span:
                SWEEP_TOPOLOGIES[topology](seed=self.seed)
            out.add(f"ndn.topology.build_ms.{topology}", span.net * 1e3)
