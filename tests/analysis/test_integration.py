"""Integration tests: the lint gate in the synthesis flow, plus property
tests that every built-in generator emits lint-clean netlists."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import LintWarning, lint_netlist
from repro.errors import LintError
from repro.netlist.ccm import ccm_multiplier
from repro.netlist.core import Netlist
from repro.netlist.mac import mac_block
from repro.netlist.multipliers import (
    baugh_wooley_multiplier,
    sign_magnitude_multiplier,
    unsigned_array_multiplier,
)
from repro.netlist.wallace import wallace_tree_multiplier


def _with_dead_lut():
    nl = unsigned_array_multiplier(4, 4)
    nl.AND(nl.input_buses["a"][0], nl.input_buses["b"][0])  # -> NL002
    return nl


def _with_overlapping_buses():
    nl = Netlist("overlap")
    a = nl.add_input_bus("a", 1)
    b = nl.add_input_bus("b", 1)
    s = nl.XOR(a[0], b[0])
    nl.set_output_bus("p", [s])
    nl.set_output_bus("q", [s])  # -> NL007
    return nl


class TestSynthesisFlowGate:
    def test_dead_lut_refused(self, flow):
        with pytest.raises(LintError, match="synthesis flow") as exc_info:
            flow.run(_with_dead_lut())
        assert "NL002" in exc_info.value.report.rule_ids

    def test_overlapping_buses_refused(self, flow):
        with pytest.raises(LintError) as exc_info:
            flow.run(_with_overlapping_buses())
        assert "NL007" in exc_info.value.report.rule_ids

    def test_lint_false_skips_gate(self, flow):
        placed = flow.run(_with_dead_lut(), lint=False)
        assert placed.netlist.n_luts > 0

    def test_warnings_surface_but_pass(self, flow):
        nl = Netlist("warn")
        a = nl.add_input_bus("a", 2)
        nl.set_output_bus("p", [nl.NOT(a[0])])  # a[1] unused -> NL011
        with pytest.warns(LintWarning, match="NL011|warning"):
            placed = flow.run(nl)
        assert placed.netlist.n_luts == 1

    def test_clean_netlist_passes(self, flow):
        placed = flow.run(unsigned_array_multiplier(4, 4))
        assert placed.netlist.n_luts > 0


class TestGeneratorsLintClean:
    """The paper's designs-under-test must carry no lint findings at all."""

    @settings(max_examples=30, deadline=None)
    @given(wa=st.integers(1, 6), wb=st.integers(1, 6))
    def test_unsigned_array(self, wa, wb):
        assert lint_netlist(unsigned_array_multiplier(wa, wb)).clean

    @settings(max_examples=30, deadline=None)
    @given(wa=st.integers(2, 6), wb=st.integers(2, 6))
    def test_baugh_wooley(self, wa, wb):
        assert lint_netlist(baugh_wooley_multiplier(wa, wb)).clean

    @settings(max_examples=30, deadline=None)
    @given(wa=st.integers(1, 6), wb=st.integers(1, 6))
    def test_sign_magnitude(self, wa, wb):
        assert lint_netlist(sign_magnitude_multiplier(wa, wb)).clean

    @settings(max_examples=30, deadline=None)
    @given(wa=st.integers(1, 6), wb=st.integers(1, 6))
    def test_wallace_tree(self, wa, wb):
        assert lint_netlist(wallace_tree_multiplier(wa, wb)).clean

    @settings(max_examples=20, deadline=None)
    @given(w_data=st.integers(1, 6), w_coeff=st.integers(1, 5))
    def test_mac(self, w_data, w_coeff):
        assert lint_netlist(mac_block(w_data, w_coeff)).clean

    @settings(max_examples=60, deadline=None)
    @given(coefficient=st.integers(1, 300), w_in=st.integers(1, 8))
    def test_ccm(self, coefficient, w_in):
        assert lint_netlist(ccm_multiplier(coefficient, w_in)).clean

    @settings(max_examples=8, deadline=None)
    @given(w_in=st.integers(1, 8))
    def test_ccm_zero_coefficient_flags_only_coverage(self, w_in):
        # coefficient 0 drops all input logic by design: NL011 and nothing else.
        rep = lint_netlist(ccm_multiplier(0, w_in))
        assert rep.rule_ids == ("NL011",)
