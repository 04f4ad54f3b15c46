"""Tests for repro.cli."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "4900" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_fig7_runs(self, capsys):
        assert main(["fig7", "--scale", "0.01", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out

    def test_fig8_renders_table(self, capsys):
        assert main(["fig8", "--scale", "0.01", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "tool Fmax" in out
        assert "9-bit tool Fmax" in out

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_scale_exits_two(self, capsys, scale):
        assert main(["runtime", "--scale", scale]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scale factor") and err.count("\n") == 1


class TestLintCli:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lint", "ccm", "93", "8"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_unsigned_multiplier_clean(self, capsys):
        assert main(["lint", "unsigned_multiplier", "8", "8"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 info(s)" in out

    def test_warnings_fail_only_at_threshold(self, capsys):
        # ccm 0 N produces NL011 warnings: pass by default, fail on request.
        assert main(["lint", "ccm", "0", "8"]) == 0
        assert main(["lint", "ccm", "0", "8", "--fail-on", "warning"]) == 1
        assert "NL011" in capsys.readouterr().out

    def test_disable_suppresses_rule(self, capsys):
        code = main(["lint", "ccm", "0", "8", "--disable", "NL011",
                     "--fail-on", "warning"])
        assert code == 0
        assert "NL011" not in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "mac", "4", "4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["error"] == 0
        assert data["diagnostics"] == []

    def test_budget_flags_reach_config(self, capsys):
        code = main(["lint", "unsigned_multiplier", "8", "8",
                     "--max-depth", "1", "--fail-on", "warning"])
        assert code == 1
        assert "NL010" in capsys.readouterr().out

    def test_bad_parameter_count_exits_two(self, capsys):
        assert main(["lint", "ccm", "93"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "not-a-generator", "8"])


class TestAnalyzeCli:
    def test_assumption_reports_frozen_cone(self, capsys):
        code = main(
            ["analyze", "unsigned_multiplier", "4", "4", "--assume", "b=5"]
        )
        assert code == 0
        assert "WL003" in capsys.readouterr().out

    def test_overflowing_assumption_exits_one(self, capsys):
        code = main(
            ["analyze", "unsigned_multiplier", "4", "4", "--assume", "b=99"]
        )
        assert code == 1
        assert "WL001" in capsys.readouterr().out

    def test_sta_report(self, capsys):
        code = main(
            ["analyze", "unsigned_multiplier", "4", "4",
             "--assume", "b=0", "--sta"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sensitised fmax" in out

    def test_json_format(self, capsys):
        import json

        code = main(["analyze", "ccm", "93", "8", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"dataflow", "lint"}
        assert data["dataflow"]["netlist"] == "ccm93x8"
        assert data["lint"]["counts"]["error"] == 0

    def test_malformed_assumption_exits_two(self, capsys):
        code = main(
            ["analyze", "unsigned_multiplier", "4", "4", "--assume", "b=x"]
        )
        assert code == 2

    def test_bad_params_exit_two(self, capsys):
        assert main(["analyze", "ccm", "93"]) == 2

    def test_unknown_generator_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["analyze", "nope", "4"])
