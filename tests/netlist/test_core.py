"""Tests for repro.netlist.core — DAG construction and evaluation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.netlist.core import (
    Netlist,
    bits_from_ints,
    ints_from_bits,
)
from repro.netlist.multipliers import unsigned_array_multiplier


class TestBitPacking:
    def test_bits_lsb_first(self):
        bits = bits_from_ints([6], 4)
        assert bits.tolist() == [[0, 1, 1, 0]]

    def test_roundtrip_unsigned(self):
        vals = np.array([0, 1, 2, 254, 255])
        assert np.array_equal(ints_from_bits(bits_from_ints(vals, 8)), vals)

    def test_negative_twos_complement(self):
        bits = bits_from_ints([-1], 4)
        assert bits.tolist() == [[1, 1, 1, 1]]
        assert ints_from_bits(bits, signed=True).tolist() == [-1]

    @given(st.lists(st.integers(-256, 255), min_size=1, max_size=50))
    def test_roundtrip_signed_property(self, vals):
        arr = np.asarray(vals)
        bits = bits_from_ints(arr, 9)
        assert np.array_equal(ints_from_bits(bits, signed=True), arr)

    @given(
        st.integers(min_value=1, max_value=63).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(
                    st.integers(0, (1 << w) - 1), min_size=1, max_size=20
                ),
            )
        )
    )
    def test_roundtrip_unsigned_any_width(self, w_vals):
        w, vals = w_vals
        arr = np.asarray(vals)
        bits = bits_from_ints(arr, w)
        assert bits.shape == (len(vals), w)
        assert np.array_equal(ints_from_bits(bits), arr)

    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda w: st.tuples(
                st.just(w),
                st.lists(
                    st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1),
                    min_size=1,
                    max_size=20,
                ),
            )
        )
    )
    def test_roundtrip_signed_any_width(self, w_vals):
        w, vals = w_vals
        arr = np.asarray(vals)
        bits = bits_from_ints(arr, w)
        assert np.array_equal(ints_from_bits(bits, signed=True), arr)

    @pytest.mark.parametrize("w", [1, 63, 64])
    def test_signed_boundaries_roundtrip(self, w):
        lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
        arr = np.array([lo, lo + 1, -1, 0, hi - 1, hi] if w > 1 else [lo, hi])
        bits = bits_from_ints(arr, w)
        assert np.array_equal(ints_from_bits(bits, signed=True), arr)

    def test_width_one_unsigned(self):
        arr = np.array([0, 1, 1, 0])
        assert np.array_equal(
            ints_from_bits(bits_from_ints(arr, 1)), arr
        )

    def test_unsigned_width_63_boundary(self):
        hi = (1 << 63) - 1
        arr = np.array([0, 1, hi - 1, hi], dtype=np.uint64).astype(np.int64)
        # values fit int64 exactly at width 63
        assert np.array_equal(ints_from_bits(bits_from_ints(arr, 63)), arr)

    def test_carrier_overflow_rejected(self):
        with pytest.raises(NetlistError):
            bits_from_ints([0], 65)
        # unsigned width 64 cannot round-trip through the int64 carrier
        with pytest.raises(NetlistError, match="int64 carrier"):
            ints_from_bits(bits_from_ints([0], 64))

    def test_zero_width_rejected(self):
        with pytest.raises(NetlistError):
            bits_from_ints([1], 0)

    def test_ints_from_bits_needs_2d(self):
        with pytest.raises(NetlistError):
            ints_from_bits(np.zeros(4, dtype=np.uint8))


class TestConstruction:
    def test_duplicate_input_bus_rejected(self):
        nl = Netlist()
        nl.add_input_bus("a", 2)
        with pytest.raises(NetlistError):
            nl.add_input_bus("a", 2)

    def test_bad_const_rejected(self):
        with pytest.raises(NetlistError):
            Netlist().add_const(2)

    def test_forward_reference_rejected(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        with pytest.raises(NetlistError):
            nl.add_lut(0b10, (a[0] + 99,))

    def test_truth_table_out_of_range_rejected(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        with pytest.raises(NetlistError):
            nl.add_lut(5, (a[0],))  # 1-input LUT has 4 possible tables

    def test_arity_limit(self):
        nl = Netlist()
        bits = nl.add_input_bus("a", 5)
        with pytest.raises(NetlistError):
            nl.add_lut(0, tuple(bits))

    def test_no_outputs_invalid(self):
        nl = Netlist()
        nl.add_input_bus("a", 1)
        with pytest.raises(NetlistError):
            nl.validate()

    def test_duplicate_output_rejected(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        nl.set_output_bus("o", [a[0]])
        with pytest.raises(NetlistError):
            nl.set_output_bus("o", [a[0]])


class TestGatesEvaluate:
    @pytest.mark.parametrize(
        "gate,table",
        [
            ("AND", [0, 0, 0, 1]),
            ("OR", [0, 1, 1, 1]),
            ("XOR", [0, 1, 1, 0]),
            ("NAND", [1, 1, 1, 0]),
            ("XNOR", [1, 0, 0, 1]),
        ],
    )
    def test_two_input_gates(self, gate, table):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        b = nl.add_input_bus("b", 1)
        out = getattr(nl, gate)(a[0], b[0])
        nl.set_output_bus("o", [out])
        c = nl.compile()
        av = np.array([0, 1, 0, 1])
        bv = np.array([0, 0, 1, 1])
        got = c.evaluate_ints(a=av, b=bv)["o"]
        assert got.tolist() == table

    def test_not(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        nl.set_output_bus("o", [nl.NOT(a[0])])
        got = nl.compile().evaluate_ints(a=np.array([0, 1]))["o"]
        assert got.tolist() == [1, 0]

    def test_mux(self):
        nl = Netlist()
        d0 = nl.add_input_bus("d0", 1)
        d1 = nl.add_input_bus("d1", 1)
        s = nl.add_input_bus("s", 1)
        nl.set_output_bus("o", [nl.MUX(d0[0], d1[0], s[0])])
        c = nl.compile()
        got = c.evaluate_ints(
            d0=np.array([1, 1, 0, 0]), d1=np.array([0, 0, 1, 1]), s=np.array([0, 1, 0, 1])
        )["o"]
        assert got.tolist() == [1, 0, 0, 1]

    def test_full_adder_truth(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        b = nl.add_input_bus("b", 1)
        ci = nl.add_input_bus("ci", 1)
        s, c = nl.full_adder(a[0], b[0], ci[0])
        nl.set_output_bus("s", [s])
        nl.set_output_bus("c", [c])
        comp = nl.compile()
        av, bv, cv = np.meshgrid([0, 1], [0, 1], [0, 1], indexing="ij")
        out = comp.evaluate_ints(a=av.ravel(), b=bv.ravel(), ci=cv.ravel())
        total = av.ravel() + bv.ravel() + cv.ravel()
        assert np.array_equal(out["s"], total % 2)
        assert np.array_equal(out["c"], total // 2)

    def test_constants(self):
        nl = Netlist()
        nl.add_input_bus("a", 1)
        nl.set_output_bus("o", [nl.add_const(1), nl.add_const(0)])
        got = nl.compile().evaluate_ints(a=np.array([0, 1]))["o"]
        assert got.tolist() == [1, 1]


class TestStatsAndCompile:
    def test_stats(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        x = nl.AND(a[0], a[1])
        y = nl.NOT(x)
        nl.set_output_bus("o", [y])
        s = nl.stats()
        assert s.n_luts == 2
        assert s.n_inputs == 2
        assert s.depth == 2
        assert s.logic_elements == 2

    def test_levels_monotone_along_paths(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        x = nl.XOR(a[0], a[1])
        y = nl.AND(x, a[0])
        nl.set_output_bus("o", [y])
        c = nl.compile()
        assert c.levels[y] > c.levels[x] > 0

    def test_missing_input_bus_rejected(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        nl.add_input_bus("b", 1)
        nl.set_output_bus("o", [a[0]])
        c = nl.compile()
        with pytest.raises(NetlistError):
            c.evaluate({"a": np.zeros((2, 1), dtype=np.uint8)})
        # No buses at all: the same error, not a StopIteration.
        mult = unsigned_array_multiplier(3, 3).compile()
        with pytest.raises(NetlistError, match=r"missing input buses: \['a', 'b'\]"):
            mult.evaluate({})
        with pytest.raises(NetlistError, match=r"missing input buses: \['a', 'b'\]"):
            mult.evaluate_ints()

    def test_wrong_width_rejected(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        nl.set_output_bus("o", [a[0]])
        c = nl.compile()
        with pytest.raises(NetlistError):
            c.evaluate({"a": np.zeros((2, 3), dtype=np.uint8)})

    def test_unknown_bus_in_evaluate_ints(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        nl.set_output_bus("o", [a[0]])
        c = nl.compile()
        with pytest.raises(NetlistError):
            c.evaluate_ints(zz=np.array([1]))


class TestValidateRegressions:
    """validate() must catch hand-assembled breakage compile() relies on."""

    def _ha(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        b = nl.add_input_bus("b", 1)
        s, c = nl.half_adder(a[0], b[0])
        nl.set_output_bus("s", [s])
        nl.set_output_bus("c", [c])
        return nl

    def test_wide_truth_table_rejected(self):
        nl = self._ha()
        nl._tts[2] = 1 << 4  # arity-2 LUT holds at most a 4-row table
        with pytest.raises(NetlistError, match="wider"):
            nl.validate()

    def test_self_referential_fanin_rejected(self):
        nl = self._ha()
        nl._fanins[3] = (3, 3)
        with pytest.raises(NetlistError, match="own fanin"):
            nl.validate()

    def test_forward_fanin_rejected(self):
        nl = self._ha()
        nl._fanins[2] = (3, 0)  # node 2 consuming node 3
        with pytest.raises(NetlistError, match="node 2 fanin 3 is a forward reference"):
            nl.validate()

    def test_non_lut_fanin_rejected(self):
        # A cycle threaded through an input node must not hide from the
        # LUT-only checks: sources may not have fanins at all.
        nl = self._ha()
        nl._fanins[0] = (2,)
        with pytest.raises(NetlistError, match="non-LUT node 0 has fanins"):
            nl.validate()

    def test_empty_output_bus_rejected(self):
        nl = self._ha()
        nl.output_buses["s"] = []
        with pytest.raises(NetlistError, match="empty"):
            nl.validate()


class TestConstDedup:
    def test_same_value_same_node(self):
        nl = Netlist()
        assert nl.add_const(1) == nl.add_const(1)
        assert nl.add_const(0) != nl.add_const(1)

    def test_const_value_lookup(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        one = nl.add_const(1)
        assert nl.const_value(one) == 1
        assert nl.const_value(a[0]) is None
        with pytest.raises(NetlistError):
            nl.const_value(99)


class TestSharedLuts:
    def test_identical_lut_reused(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        x = nl.add_lut_shared(0b0110, (a[0], a[1]))
        assert nl.add_lut_shared(0b0110, (a[0], a[1])) == x

    def test_different_fanin_order_not_merged(self):
        # Sharing is purely structural; canonicalisation is the linter's job.
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        x = nl.add_lut_shared(0b0110, (a[0], a[1]))
        assert nl.add_lut_shared(0b0110, (a[1], a[0])) != x


class TestPruneDangling:
    def test_removes_unreachable_nodes(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        keep = nl.XOR(a[0], a[1])
        nl.AND(a[0], a[1])  # dead
        nl.add_const(1)  # dead
        nl.set_output_bus("o", [keep])
        assert nl.prune_dangling() == 2
        assert nl.n_nodes == 3
        got = nl.compile().evaluate_ints(a=np.array([0, 1, 2, 3]))["o"]
        assert got.tolist() == [0, 1, 1, 0]

    def test_noop_on_live_netlist(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        nl.set_output_bus("o", [nl.XOR(a[0], a[1])])
        assert nl.prune_dangling() == 0

    def test_inputs_always_kept(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        nl.set_output_bus("o", [nl.NOT(a[0])])  # a[1] unused
        assert nl.prune_dangling() == 0
        assert nl.input_buses["a"] == a

    def test_caches_remapped(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        nl.OR(a[0], a[1])  # dead; shifts every id behind it on prune
        keep = nl.add_lut_shared(0b0110, (a[0], a[1]))
        one = nl.add_const(1)
        nl.set_output_bus("o", [keep, one])
        assert nl.prune_dangling() == 1
        # Dedup/CSE caches must follow the renumbering.
        assert nl.add_const(1) == nl.output_buses["o"][1]
        assert nl.add_lut_shared(0b0110, tuple(nl.input_buses["a"])) == \
            nl.output_buses["o"][0]
