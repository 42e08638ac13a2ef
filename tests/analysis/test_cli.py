"""Unit tests for the repro-experiments CLI."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestFig4Commands:
    def test_fig4a_prints_series(self, capsys):
        assert main(["fig4a", "--k", "1", "--c-max", "20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out
        assert "uniform" in out and "expo(eps=0.05)" in out

    def test_fig4b_prints_peaks(self, capsys):
        assert main(["fig4b", "--k", "1", "--c-max", "50"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(b)" in out
        assert "max difference (delta=0.05)" in out

    def test_fig4a_custom_epsilons(self, capsys):
        assert main(["fig4a", "--k", "2", "--epsilons", "0.02", "--c-max", "10"]) == 0
        assert "expo(eps=0.02)" in capsys.readouterr().out


class TestFig3Command:
    def test_single_setting(self, capsys):
        assert main(["fig3", "fig3a_lan", "--objects", "8", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 [fig3a_lan]" in out
        assert "engine: 1/1 panels on the batch kernel" in out
        assert "Bayes success" in out

    def test_unknown_setting_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "not-a-setting"])


class TestFig5Commands:
    def test_fig5a_small(self, capsys):
        assert main([
            "fig5a", "--requests", "3000", "--sizes", "200", "inf",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert "Inf" in out

    def test_fig5b_small(self, capsys):
        assert main([
            "fig5b", "--requests", "3000", "--sizes", "200",
            "--private-fractions", "0.1", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 5(b)" in out
        assert "10% private" in out and "40% private" in out

    def test_fig5_streams_through_the_shard_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        """The only pathway: a verified shard entry, no TSV, and the
        table the in-RAM replay of the same trace renders."""
        from repro.analysis.experiments import run_fig5a
        from repro.core.schemes.registry import describe
        from repro.workload.ircache import IrcacheConfig, IrcacheGenerator
        from repro.workload.sharded import ShardedCompiledTrace

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        assert main([
            "fig5a", "--requests", "3000", "--sizes", "200", "inf",
        ]) == 0
        out = capsys.readouterr().out
        (entry,) = tmp_path.glob("ircache-shards-*")
        ShardedCompiledTrace.open(entry).verify()
        assert not list(tmp_path.glob("*.tsv"))
        trace = IrcacheGenerator(IrcacheConfig(requests=3000, seed=0)).generate()
        in_ram = run_fig5a(trace, cache_sizes=(200, None), workers=1)
        headers = "".join(describe(spec) + "\n" for spec in in_ram.schemes)
        assert out == headers + in_ram.render() + "\n"
        assert headers.splitlines()[2] == (
            "scheme uniform(k=5, delta=0.01): (5, 0, 0.01)-privacy"
        )

    @pytest.mark.parametrize("command", ["fig5a", "fig5b"])
    def test_streaming_flag_is_gone(self, command):
        with pytest.raises(SystemExit):
            main([command, "--requests", "3000", "--streaming"])


class TestUtilityCommands:
    def test_amplification(self, capsys):
        assert main(["amplification", "--p", "0.59", "--fragments", "8"]) == 0
        out = capsys.readouterr().out
        assert "0.9992" in out  # 1 - 0.41^8

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "trace.tsv"
        assert main(["trace", "--requests", "500", "--out", str(out_path)]) == 0
        assert "wrote 500 requests" in capsys.readouterr().out
        from repro.workload.sharded import compile_workload
        from repro.workload.streaming import TsvWorkload

        assert compile_workload(TsvWorkload(out_path)).n_requests == 500

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_profile_command_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "fig3a_lan"])
        assert exit_info.value.code == 2


class TestValidateCommand:
    CHECKS = (
        "invariants [unbounded-baseline]",
        "invariants [bounded-evict]",
        "invariants [bounded-drop-new]",
        "invariants [bounded-polluted]",
        "differential",
        "topology differential",
        "streaming differential",
        "defense transparency",
    )

    def test_one_status_line_per_check_then_a_doctored_failure(
        self, capsys, monkeypatch
    ):
        from repro import cli
        from repro.validation.differential import CaseResult, DifferentialReport

        assert tuple(cli.VALIDATION_CHECKS) == self.CHECKS
        assert main(["validate", "--requests", "2000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == list(self.CHECKS)
        assert all(": ok (" in line for line in lines[:-1])
        assert "2000 requests" in lines[4] and "2000 requests" in lines[6]
        assert lines[-1] == "validation passed"

        # One failing entry: its mismatch is printed, the rest still run.
        ran = []
        for name in self.CHECKS:
            monkeypatch.setitem(
                cli.VALIDATION_CHECKS,
                name,
                lambda seed, requests, name=name: ran.append(name)
                or DifferentialReport([CaseResult("stub", [])]),
            )
        monkeypatch.setitem(
            cli.VALIDATION_CHECKS,
            "topology differential",
            lambda seed, requests: DifferentialReport(
                [
                    CaseResult("star/ok", []),
                    CaseResult("tree/bad", ["end_time: oracle=1.0 batch=2.0"]),
                ]
            ),
        )
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "topology differential: MISMATCH (2 cases)" in out
        assert "  - tree/bad: end_time: oracle=1.0 batch=2.0" in out
        assert "star/ok" not in out
        assert out.splitlines()[-1] == "validation FAILED"
        assert ran == [n for n in self.CHECKS if n != "topology differential"]
