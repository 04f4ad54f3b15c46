"""Tests for repro.timing.simulator — the transition-aware settle model."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import TimingError
from repro.kernels import execute as kernels_execute
from repro.kernels.plan import plan_for
from repro.netlist.core import EvalScratch, Netlist, bits_from_ints
from repro.netlist.multipliers import unsigned_array_multiplier
from repro.timing.simulator import simulate_transitions


def _xor_chain(n_gates: int):
    nl = Netlist()
    a = nl.add_input_bus("a", 1)
    b = nl.add_input_bus("b", 1)
    node = nl.XOR(a[0], b[0])
    for _ in range(n_gates - 1):
        node = nl.XOR(node, b[0])
    nl.set_output_bus("o", [node])
    return nl.compile()


def _uniform(c, lut=1.0, edge=0.0):
    nd = np.where(c.lut_mask, lut, 0.0)
    ed = np.where(c.lut_mask[:, None], edge, 0.0) * np.ones((1, 4))
    return nd, ed


class TestFunctionalValues:
    def test_values_match_evaluate(self):
        c = unsigned_array_multiplier(5, 5).compile()
        rng = np.random.default_rng(0)
        a = rng.integers(0, 32, 50)
        b = rng.integers(0, 32, 50)
        ins = {"a": bits_from_ints(a, 5), "b": bits_from_ints(b, 5)}
        nd, ed = _uniform(c)
        res = simulate_transitions(c, ins, nd, ed)
        ref = c.evaluate(ins)["p"]
        assert np.array_equal(res.output_values("p"), ref)


class TestSettleSemantics:
    def test_unchanged_output_settles_at_zero(self):
        c = _xor_chain(4)
        ins = {
            "a": bits_from_ints(np.array([0, 0]), 1),
            "b": bits_from_ints(np.array([0, 0]), 1),
        }
        nd, ed = _uniform(c)
        res = simulate_transitions(c, ins, nd, ed)
        assert res.output_settle("o")[0, 0] == 0.0

    def test_changed_output_settles_at_path_delay(self):
        c = _xor_chain(4)
        ins = {
            "a": bits_from_ints(np.array([0, 1]), 1),
            "b": bits_from_ints(np.array([0, 0]), 1),
        }
        nd, ed = _uniform(c, lut=1.0)
        res = simulate_transitions(c, ins, nd, ed)
        # a toggles: the change ripples through all 4 XOR gates.
        assert res.output_settle("o")[0, 0] == pytest.approx(4.0)

    def test_short_path_settles_early(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 1)
        b = nl.add_input_bus("b", 1)
        deep = nl.NOT(nl.NOT(nl.NOT(a[0])))
        nl.set_output_bus("deep", [deep])
        nl.set_output_bus("shallow", [nl.NOT(b[0])])
        c = nl.compile()
        ins = {
            "a": bits_from_ints(np.array([0, 1]), 1),
            "b": bits_from_ints(np.array([0, 1]), 1),
        }
        nd, ed = _uniform(c, lut=1.0)
        res = simulate_transitions(c, ins, nd, ed)
        assert res.output_settle("shallow")[0, 0] == pytest.approx(1.0)
        assert res.output_settle("deep")[0, 0] == pytest.approx(3.0)

    def test_edge_delay_included(self):
        c = _xor_chain(2)
        ins = {
            "a": bits_from_ints(np.array([0, 1]), 1),
            "b": bits_from_ints(np.array([0, 0]), 1),
        }
        nd, ed = _uniform(c, lut=1.0, edge=0.5)
        res = simulate_transitions(c, ins, nd, ed)
        assert res.output_settle("o")[0, 0] == pytest.approx(2 * 1.5)

    def test_settle_nonnegative_and_bounded_by_sta(self):
        from repro.timing.sta import static_timing

        c = unsigned_array_multiplier(6, 6).compile()
        rng = np.random.default_rng(1)
        a = rng.integers(0, 64, 200)
        b = rng.integers(0, 64, 200)
        ins = {"a": bits_from_ints(a, 6), "b": bits_from_ints(b, 6)}
        nd, ed = _uniform(c, lut=0.2, edge=0.05)
        res = simulate_transitions(c, ins, nd, ed)
        sta = static_timing(c, nd, ed)
        settle = res.output_settle("p")
        assert settle.min() >= 0.0
        assert settle.max() <= sta.critical_path_ns + 1e-9

    def test_benign_multiplicand_settles_earlier(self):
        """Paper Fig. 5: few-'1'-bit multiplicands excite shorter paths."""
        c = unsigned_array_multiplier(8, 8).compile()
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, 400)
        nd, ed = _uniform(c, lut=0.2, edge=0.05)
        worst = {}
        for m in (2, 255):
            ins = {
                "a": bits_from_ints(a, 8),
                "b": bits_from_ints(np.full_like(a, m), 8),
            }
            res = simulate_transitions(c, ins, nd, ed)
            worst[m] = float(res.output_settle("p").max())
        assert worst[2] < worst[255]


class TestScratchReuse:
    """The two documented ``EvalScratch`` contracts."""

    @staticmethod
    def _stream(seed):
        rng = np.random.default_rng(seed)
        return {
            "a": bits_from_ints(rng.integers(0, 32, 100), 5),
            "b": bits_from_ints(rng.integers(0, 32, 100), 5),
        }

    def test_simulation_results_survive_the_next_call(self):
        c = unsigned_array_multiplier(5, 5).compile()
        nd, ed = _uniform(c, lut=0.2, edge=0.05)
        scratch = EvalScratch()
        first = simulate_transitions(c, self._stream(0), nd, ed, scratch=scratch)
        second = simulate_transitions(c, self._stream(1), nd, ed, scratch=scratch)
        fresh = simulate_transitions(c, self._stream(0), nd, ed)
        assert len(scratch) > 0
        assert not np.array_equal(fresh.settle, second.settle)  # streams differ
        assert first.values.tobytes() == fresh.values.tobytes()
        assert first.settle.tobytes() == fresh.settle.tobytes()

    def test_warm_call_allocates_little_beyond_its_results(self):
        """A warm same-shape call pools every (nodes x transitions) temporary."""
        c = unsigned_array_multiplier(8, 8).compile()
        nd, ed = _uniform(c, lut=0.2, edge=0.05)
        rng = np.random.default_rng(3)
        ins = {
            "a": bits_from_ints(rng.integers(0, 256, 2000), 8),
            "b": bits_from_ints(rng.integers(0, 256, 2000), 8),
        }
        scratch = EvalScratch()
        simulate_transitions(c, ins, nd, ed, scratch=scratch)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            res = simulate_transitions(c, ins, nd, ed, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        excess = peak - res.values.nbytes - res.settle.nbytes
        assert excess <= 64 * 1024

    def test_evaluate_output_is_overwritten_by_the_next_call(self):
        c = unsigned_array_multiplier(5, 5).compile()
        scratch = EvalScratch()
        first_in, second_in = self._stream(0), self._stream(1)
        first = c.evaluate(first_in, scratch=scratch)["p"]
        assert np.array_equal(first, c.evaluate(first_in)["p"])
        second = c.evaluate(second_in, scratch=scratch)["p"]
        assert second is first
        assert np.array_equal(first, c.evaluate(second_in)["p"])


class TestInternalError:
    """A value plane in which a LUT output toggles while none of its
    fanins do is inconsistent; the simulator must refuse it wherever the
    node sits in the settle propagation."""

    @staticmethod
    def _netlist():
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        b = nl.add_input_bus("b", 2)
        wide = nl.XOR3(a[0], a[1], b[0])
        narrow = nl.NOT(b[1])
        last = nl.AND(wide, narrow)
        nl.set_output_bus("o", [last])
        return nl.compile(), {"first": wide, "narrow": narrow, "last": last}

    @pytest.mark.parametrize("placement", ["first", "last", "narrow"])
    def test_toggle_without_changed_fanin_raises(self, monkeypatch, placement):
        c, nodes = self._netlist()
        levels = plan_for(c).timing_levels
        assert nodes["first"] in levels[0].ids and nodes["narrow"] in levels[0].ids
        assert nodes["last"] in levels[-1].ids and len(levels) == 2
        assert c.arity[nodes["narrow"]] < c.arity[levels[0].ids].max()
        real = kernels_execute.stream_values

        def inconsistent(cn, inputs, scratch=None):
            plane = real(cn, inputs, scratch=scratch)
            plane[nodes[placement], 1] ^= 1
            return plane

        monkeypatch.setattr(kernels_execute, "stream_values", inconsistent)
        # Constant inputs: no node changes except the one flipped above.
        ins = {"a": bits_from_ints([1, 1, 1], 2), "b": bits_from_ints([2, 2, 2], 2)}
        nd, ed = _uniform(c)
        with pytest.raises(TimingError, match="no changed fanin"):
            simulate_transitions(c, ins, nd, ed)


class TestValidation:
    def test_stream_too_short_rejected(self):
        c = _xor_chain(1)
        nd, ed = _uniform(c)
        with pytest.raises(TimingError):
            simulate_transitions(
                c,
                {"a": bits_from_ints([0], 1), "b": bits_from_ints([0], 1)},
                nd,
                ed,
            )

    def test_length_mismatch_rejected(self):
        c = _xor_chain(1)
        nd, ed = _uniform(c)
        with pytest.raises(TimingError):
            simulate_transitions(
                c,
                {
                    "a": bits_from_ints([0, 1], 1),
                    "b": bits_from_ints([0, 1, 0], 1),
                },
                nd,
                ed,
            )

    def test_bad_delay_shapes_rejected(self):
        c = _xor_chain(1)
        with pytest.raises(TimingError):
            simulate_transitions(
                c,
                {
                    "a": bits_from_ints([0, 1], 1),
                    "b": bits_from_ints([0, 1], 1),
                },
                np.zeros(1),
                np.zeros((1, 4)),
            )
