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


class TestUtilityCommands:
    def test_amplification(self, capsys):
        assert main(["amplification", "--p", "0.59", "--fragments", "8"]) == 0
        out = capsys.readouterr().out
        assert "0.9992" in out  # 1 - 0.41^8

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "trace.tsv"
        assert main(["trace", "--requests", "500", "--out", str(out_path)]) == 0
        assert "wrote 500 requests" in capsys.readouterr().out
        from repro.workload.trace import Trace

        assert len(Trace.load(out_path)) == 500

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
