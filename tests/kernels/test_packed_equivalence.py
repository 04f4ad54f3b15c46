"""Packed kernel vs the interpreted oracle: proven bit-for-bit identical.

The packed kernel's whole claim is "same bits, faster".  These tests
pin that claim against the interpreted evaluator of
``tests/kernels/oracle.py`` on random netlists (Hypothesis-driven DAGs
with every gate helper the builder offers), on the real arithmetic
generators, and on the transition-timing path (values *and* float32
settle times).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import evaluate_packed, pack_bits, stream_values, unpack_plane
from repro.netlist.core import _KIND_CONST, EvalScratch, Netlist
from repro.netlist.generators import generate
from repro.timing.simulator import simulate_transitions
from tests.kernels import oracle

# Compiled-netlist cache: compilation dominates test time otherwise.
_GEN_CACHE: dict = {}


def _generated(name, *args):
    key = (name,) + args
    if key not in _GEN_CACHE:
        _GEN_CACHE[key] = generate(name, *args).compile()
    return _GEN_CACHE[key]


def _random_netlist(seed: int, width: int, n_luts: int) -> Netlist:
    """A random DAG built from the gate helpers (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    nl = Netlist(f"rand-{seed}-{width}-{n_luts}")
    pool = list(nl.add_input_bus("a", width)) + list(
        nl.add_input_bus("b", width)
    )
    pool.append(nl.add_const(0))
    pool.append(nl.add_const(1))
    for _ in range(n_luts):
        op = rng.integers(0, 7)
        picks = [int(pool[i]) for i in rng.integers(0, len(pool), size=3)]
        if op == 0:
            nid = nl.AND(picks[0], picks[1])
        elif op == 1:
            nid = nl.OR(picks[0], picks[1])
        elif op == 2:
            nid = nl.XOR(picks[0], picks[1])
        elif op == 3:
            nid = nl.NOT(picks[0])
        elif op == 4:
            nid = nl.XOR3(picks[0], picks[1], picks[2])
        elif op == 5:
            nid = nl.MAJ3(picks[0], picks[1], picks[2])
        else:
            nid = nl.MUX(picks[0], picks[1], picks[2])
        pool.append(nid)
    out = [int(pool[i]) for i in rng.integers(0, len(pool), size=width)]
    nl.set_output_bus("p", out)
    return nl


def _random_inputs(cn, batch: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 2, size=(batch, ids.shape[0])).astype(np.uint8)
        for name, ids in cn.input_buses.items()
    }


class TestPackUnpackRoundTrip:
    @given(st.integers(1, 200), st.integers(1, 20), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, batch, width, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(batch, width)).astype(np.uint8)
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        back = unpack_plane(words, batch)
        np.testing.assert_array_equal(back, bits.T)

    def test_zero_batch(self):
        words = pack_bits(np.zeros((0, 3), dtype=np.uint8))
        assert unpack_plane(words, 0).shape == (3, 0)


class TestRandomNetlists:
    @given(
        st.integers(0, 2**31),
        st.integers(1, 8),
        st.integers(1, 40),
        st.sampled_from([1, 3, 63, 64, 65, 130]),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_matches_interp(self, seed, width, n_luts, batch):
        cn = _random_netlist(seed, width, n_luts).compile()
        inputs = _random_inputs(cn, batch, seed ^ 0x5EED)
        want = oracle.evaluate(cn, inputs)
        got = evaluate_packed(cn, inputs)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_stream_plane_matches_interp_values(self, seed):
        cn = _random_netlist(seed, 5, 25).compile()
        inputs = _random_inputs(cn, 50, seed)  # (N, width) streams
        plane = stream_values(cn, inputs)
        np.testing.assert_array_equal(plane, oracle.stream_values(cn, inputs))


class TestGeneratorNetlists:
    def test_all_generators_bit_identical(self):
        cases = [
            ("unsigned_multiplier", 6, 5),
            ("wallace_multiplier", 5, 5),
            ("baugh_wooley_multiplier", 5, 4),
            ("sign_magnitude_multiplier", 5, 4),
            ("ccm", 77, 6),
            ("mac", 4, 4),
        ]
        for case_i, (name, *args) in enumerate(cases):
            cn = _generated(name, *args)
            for batch in (1, 64, 97):
                inputs = _random_inputs(cn, batch, 1000 + case_i)
                want = oracle.evaluate(cn, inputs)
                got = evaluate_packed(cn, inputs)
                for bus in want:
                    np.testing.assert_array_equal(got[bus], want[bus], err_msg=f"{name}/{bus}")


class TestTimingEquivalence:
    def test_simulate_transitions_identical(self, placed_mult8):
        cn = placed_mult8.netlist
        rng = np.random.default_rng(7)
        n = 120
        from repro.netlist.core import bits_from_ints

        inputs = {
            "a": bits_from_ints(rng.integers(0, 256, n), 8),
            "b": bits_from_ints(rng.integers(0, 256, n), 8),
        }
        ref = oracle.simulate_transitions(
            cn, inputs, placed_mult8.node_delay, placed_mult8.edge_delay
        )
        got = simulate_transitions(
            cn, inputs, placed_mult8.node_delay, placed_mult8.edge_delay
        )
        np.testing.assert_array_equal(got.values, ref.values)
        # Bit-identical float32: same ops in the same order, not just close.
        np.testing.assert_array_equal(
            got.settle.view(np.uint32), ref.settle.view(np.uint32)
        )

    def test_synthetic_delays_random_dag(self):
        cn = _random_netlist(99, 6, 30).compile()
        rng = np.random.default_rng(3)
        node_delay = rng.uniform(0.1, 0.9, cn.n_nodes)
        edge_delay = rng.uniform(0.05, 0.4, (cn.n_nodes, 4))
        inputs = {
            name: rng.integers(0, 2, size=(40, ids.shape[0])).astype(np.uint8)
            for name, ids in cn.input_buses.items()
        }
        ref = oracle.simulate_transitions(cn, inputs, node_delay, edge_delay)
        got = simulate_transitions(cn, inputs, node_delay, edge_delay)
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(
            got.settle.view(np.uint32), ref.settle.view(np.uint32)
        )

    # One pool for every example: shapes change from call to call.
    _sweep_scratch = EvalScratch()

    @given(
        st.integers(0, 2**31),
        st.integers(1, 8),
        st.integers(1, 120),
        st.integers(2, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_synthetic_delays_mixed_arity_sweep(self, seed, width, n_luts, stream_len):
        cn = _random_netlist(seed, width, n_luts).compile()
        rng = np.random.default_rng(seed)
        node_delay = rng.uniform(0.1, 0.9, cn.n_nodes)
        edge_delay = rng.uniform(0.05, 0.4, (cn.n_nodes, 4))
        inputs = _random_inputs(cn, stream_len, seed ^ 0x5EED)
        ref = oracle.simulate_transitions(cn, inputs, node_delay, edge_delay)
        got = simulate_transitions(
            cn, inputs, node_delay, edge_delay, scratch=self._sweep_scratch
        )
        np.testing.assert_array_equal(got.values, ref.values)
        np.testing.assert_array_equal(
            got.settle.view(np.uint32), ref.settle.view(np.uint32)
        )

    def test_sweep_netlists_mix_arities_within_a_level(self):
        """The sweep's DAGs reach levels holding NOT, 2- and 3-input LUTs
        side by side, some reading a constant: the cases in which a fanin
        slot covers only a prefix of the level."""
        cn = _random_netlist(5, 4, 120).compile()

        def reads_const(nid):
            return (cn.kinds[cn.fanin_idx[nid, : cn.arity[nid]]] == _KIND_CONST).any()

        assert any(
            {1, 2, 3} <= set(cn.arity[lv.ids].tolist())
            and any(reads_const(nid) for nid in lv.ids)
            for lv in cn.timing_levels
        )
