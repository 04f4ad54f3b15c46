"""Tests for repro.analysis.linter — LintConfig and the gate helpers."""

import pytest

from repro.analysis import (
    LintConfig,
    LintWarning,
    Severity,
    check_netlist,
    lint_netlist,
)
from repro.errors import AnalysisError, LintError
from repro.netlist.core import Netlist
from repro.netlist.multipliers import unsigned_array_multiplier


def _dead_lut_netlist():
    nl = Netlist("dead")
    a = nl.add_input_bus("a", 1)
    b = nl.add_input_bus("b", 1)
    nl.set_output_bus("p", [nl.XOR(a[0], b[0])])
    nl.AND(a[0], b[0])  # dead: drives nothing, unreachable -> NL002 + NL001
    return nl


def _warning_only_netlist():
    nl = Netlist("warn")
    a = nl.add_input_bus("a", 2)
    nl.set_output_bus("p", [nl.NOT(a[0])])  # a[1] unused -> NL011 warning
    return nl


class TestLintConfig:
    def test_unknown_disabled_rule_rejected(self):
        with pytest.raises(AnalysisError, match="unknown rule"):
            LintConfig(disabled=frozenset({"NL999"}))

    @pytest.mark.parametrize("kwargs", [{"max_fanout": 0}, {"max_depth": -3}])
    def test_budgets_must_be_positive(self, kwargs):
        with pytest.raises(AnalysisError, match="budgets"):
            LintConfig(**kwargs)

    def test_build_parses_severity_names(self):
        assert LintConfig.build(fail_on="warning").fail_on is Severity.WARNING
        assert LintConfig.build(fail_on="info").fail_on is Severity.INFO
        assert LintConfig.build().fail_on is Severity.ERROR

    def test_build_reads_budget_settings(self):
        cfg = LintConfig.build(max_fanout=7, max_depth=9)
        assert (cfg.max_fanout, cfg.max_depth) == (7, 9)
        # Budgets left unset keep the field defaults.
        cfg = LintConfig.build()
        assert (cfg.max_fanout, cfg.max_depth) == (32, 128)
        assert cfg == LintConfig()


class TestLintNetlist:
    def test_disabled_rules_skipped(self):
        rep = lint_netlist(
            _dead_lut_netlist(), LintConfig(disabled=frozenset({"NL001", "NL002"}))
        )
        assert rep.clean

    def test_diagnostics_sorted_most_severe_first(self):
        rep = lint_netlist(_dead_lut_netlist())
        sevs = [d.severity for d in rep.diagnostics]
        assert sevs == sorted(sevs, reverse=True)
        assert rep.diagnostics[0].rule == "NL002"

    def test_builder_and_compiled_forms_agree(self):
        nl = _warning_only_netlist()
        a = lint_netlist(nl)
        b = lint_netlist(nl.compile())
        assert a.rule_ids == b.rule_ids
        assert len(a.diagnostics) == len(b.diagnostics)
        assert a.n_nodes == b.n_nodes

    def test_compiled_multiplier_clean(self):
        assert lint_netlist(unsigned_array_multiplier(4, 4).compile()).clean


class TestCheckNetlist:
    def test_raises_with_report_attached(self):
        with pytest.raises(LintError, match="NL002") as exc_info:
            check_netlist(_dead_lut_netlist(), context="unit test")
        assert "unit test" in str(exc_info.value)
        assert "NL002" in exc_info.value.report.rule_ids

    def test_warns_below_threshold(self):
        with pytest.warns(LintWarning, match="1 warning"):
            rep = check_netlist(_warning_only_netlist())
        assert rep.ok()

    def test_clean_netlist_silent(self, recwarn):
        rep = check_netlist(unsigned_array_multiplier(3, 3))
        assert rep.clean
        assert not [w for w in recwarn if issubclass(w.category, LintWarning)]

    def test_fail_on_warning_promotes(self):
        cfg = LintConfig.build(fail_on="warning")
        with pytest.raises(LintError):
            check_netlist(_warning_only_netlist(), cfg)
