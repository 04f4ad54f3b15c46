"""Tests for the word-level dataflow engine (repro.analysis.dataflow)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    BIT_ONE,
    BIT_TOP,
    BIT_ZERO,
    AnalysisContext,
    IntRange,
    analyze_dataflow,
)
from repro.analysis.dataflow import (
    bits_to_range,
    cache_key,
    normalize_assumptions,
    range_to_bits,
    representable_range,
)
from repro.errors import AnalysisError
from repro.netlist import (
    baugh_wooley_multiplier,
    ccm_multiplier,
    unsigned_array_multiplier,
)


class TestIntRange:
    def test_singleton_and_width(self):
        r = IntRange(5, 5)
        assert r.singleton
        assert 5 in r and 4 not in r
        assert IntRange(0, 255).width == 256

    def test_invalid_rejected(self):
        with pytest.raises(AnalysisError):
            IntRange(3, 2)

    def test_intersect(self):
        assert IntRange(0, 10).intersect(IntRange(5, 20)) == IntRange(5, 10)
        assert IntRange(0, 4).intersect(IntRange(5, 9)) is None


class TestLatticeConversions:
    @given(
        lo=st.integers(min_value=0, max_value=255),
        hi=st.integers(min_value=0, max_value=255),
    )
    def test_range_to_bits_sound_unsigned(self, lo, hi):
        """Every value in the range is consistent with the bit codes."""
        lo, hi = min(lo, hi), max(lo, hi)
        codes = range_to_bits(IntRange(lo, hi), 8, signed=False)
        for v in range(lo, hi + 1):
            for i, c in enumerate(codes):
                bit = (v >> i) & 1
                assert c == BIT_TOP or c == bit

    @given(
        lo=st.integers(min_value=-128, max_value=127),
        hi=st.integers(min_value=-128, max_value=127),
    )
    def test_range_to_bits_sound_signed(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        codes = range_to_bits(IntRange(lo, hi), 8, signed=True)
        for v in range(lo, hi + 1):
            for i, c in enumerate(codes):
                bit = ((v + 256) >> i) & 1 if v < 0 else (v >> i) & 1
                assert c == BIT_TOP or c == bit

    def test_singleton_fully_known(self):
        codes = range_to_bits(IntRange(93, 93), 8, signed=False)
        assert codes == [(93 >> i) & 1 for i in range(8)]
        assert bits_to_range(codes, signed=False) == IntRange(93, 93)

    @given(v=st.integers(min_value=-8, max_value=7))
    def test_signed_singleton_round_trips(self, v):
        codes = range_to_bits(IntRange(v, v), 4, signed=True)
        assert all(c != BIT_TOP for c in codes)
        assert bits_to_range(codes, signed=True) == IntRange(v, v)

    def test_bits_to_range_encloses(self):
        # bit0 known-1, rest unknown: odd values of [1, 15].
        codes = [BIT_ONE, BIT_TOP, BIT_TOP, BIT_TOP]
        rng = bits_to_range(codes, signed=False)
        assert rng.lo <= 1 and rng.hi >= 15

    def test_known_zero_top_bits(self):
        codes = [BIT_TOP, BIT_TOP, BIT_ZERO, BIT_ZERO]
        assert bits_to_range(codes, signed=False) == IntRange(0, 3)


class TestAssumptions:
    def test_unknown_bus_raises(self):
        ctx = AnalysisContext.build(unsigned_array_multiplier(4, 4))
        with pytest.raises(AnalysisError, match="unknown input bus"):
            normalize_assumptions(ctx, {"nope": 3})

    def test_overflow_raises_or_clamps(self):
        ctx = AnalysisContext.build(unsigned_array_multiplier(4, 4))
        with pytest.raises(AnalysisError, match="does not fit"):
            normalize_assumptions(ctx, {"a": (0, 999)})
        clamped = normalize_assumptions(ctx, {"a": (0, 999)}, clamp=True)
        assert clamped["a"] == IntRange(0, 15)

    def test_bool_rejected(self):
        ctx = AnalysisContext.build(unsigned_array_multiplier(4, 4))
        with pytest.raises(AnalysisError, match="must be int"):
            normalize_assumptions(ctx, {"a": True})

    def test_cache_key_canonical(self):
        assert cache_key(None) == ()
        assert cache_key({"b": 3, "a": (0, 7)}) == cache_key(
            {"a": IntRange(0, 7), "b": IntRange(3, 3)}
        )

    def test_representable_range(self):
        assert representable_range(4, False) == IntRange(0, 15)
        assert representable_range(4, True) == IntRange(-8, 7)


class TestDataflowExactness:
    """Singleton assumptions must reproduce the concrete evaluation."""

    @pytest.mark.parametrize("c", range(256))
    def test_ccm_products_exact(self, c):
        nl = ccm_multiplier(c, 8)
        cn = nl.compile()
        for x in [0, 1, 77, 128, 173, 255]:
            flow = analyze_dataflow(cn, {"x": x})
            assert flow.constant_value("p") == c * x
            assert flow.output_ranges["p"].singleton

    def test_both_operands_pinned(self):
        cn = unsigned_array_multiplier(8, 8).compile()
        flow = analyze_dataflow(cn, {"a": 201, "b": 37})
        assert flow.constant_value("p") == 201 * 37

    def test_signed_multiplier_pinned(self):
        cn = baugh_wooley_multiplier(6, 6).compile()
        flow = analyze_dataflow(cn, {"a": -23, "b": 17})
        assert flow.bus_range("p") == IntRange(-23 * 17, -23 * 17)

    def test_no_assumptions_gives_representable_output(self):
        cn = unsigned_array_multiplier(4, 4).compile()
        flow = analyze_dataflow(cn)
        rng = flow.output_ranges["p"]
        assert rng.lo == 0 and rng.hi >= 15 * 15


class TestDataflowSoundness:
    """Abstract results must enclose every concrete behaviour."""

    @settings(max_examples=30, deadline=None)
    @given(
        alo=st.integers(min_value=0, max_value=15),
        ahi=st.integers(min_value=0, max_value=15),
        b=st.integers(min_value=0, max_value=15),
    )
    def test_range_assumption_encloses_concrete(self, alo, ahi, b):
        alo, ahi = min(alo, ahi), max(alo, ahi)
        cn = unsigned_array_multiplier(4, 4).compile()
        flow = analyze_dataflow(cn, {"a": (alo, ahi), "b": b})
        rng = flow.bus_range("p")
        codes = flow.bus_codes("p")
        xs = np.arange(alo, ahi + 1)
        products = cn.evaluate_ints(a=xs, b=np.full_like(xs, b))["p"]
        for p in products:
            assert int(p) in rng
            for i, code in enumerate(codes):
                assert code == BIT_TOP or code == (int(p) >> i) & 1

    def test_static_luts_never_toggle(self):
        """Nodes reported static are constant across the assumed set."""
        cn = unsigned_array_multiplier(4, 4).compile()
        flow = analyze_dataflow(cn, {"b": 5})
        static = flow.node_static
        xs = np.arange(16)
        bits = cn.evaluate(
            {
                "a": np.stack(
                    [[(x >> i) & 1 for i in range(4)] for x in xs]
                ).astype(np.uint8),
                "b": np.tile(
                    np.array([[1, 0, 1, 0]], dtype=np.uint8), (16, 1)
                ),
            }
        )
        # Concrete check on the output bus: any static output bit is the
        # same for every a.
        for i, nid in enumerate(cn.output_buses["p"]):
            if static[nid]:
                col = bits["p"][:, i]
                assert np.all(col == col[0])

    def test_iterations_reach_fixed_point_quickly(self):
        cn = ccm_multiplier(93, 8).compile()
        flow = analyze_dataflow(cn, {"x": (0, 100)})
        assert flow.iterations <= 2


class TestDataflowResultApi:
    def test_as_dict_is_jsonable(self):
        import json

        flow = analyze_dataflow(ccm_multiplier(93, 8), {"x": 7})
        blob = json.loads(json.dumps(flow.as_dict()))
        assert blob["netlist"] == "ccm93x8"
        assert blob["n_known_bits"] > 0

    def test_context_memoises(self):
        ctx = AnalysisContext.build(unsigned_array_multiplier(4, 4))
        a = ctx.dataflow({"b": 3})
        b = ctx.dataflow({"b": IntRange(3, 3)})
        assert a is b
        assert ctx.dataflow(None) is ctx.dataflow(None)
