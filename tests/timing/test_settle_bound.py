"""The float32 arrival times bound every settle time the simulator produces.

The datapath skips settle propagation on a lane whose float32 arrival
(``arrival_times(..., dtype=np.float32)``) meets the clock, so the bound
must hold with no tolerance, for any stimulus, in the simulator and in
the interpreted oracle of ``tests/kernels/oracle.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import make_device
from repro.netlist.core import Netlist, bits_from_ints
from repro.parallel.cache import multiplier_netlist
from repro.synthesis import SynthesisFlow
from repro.timing.simulator import simulate_transitions
from repro.timing.sta import arrival_times
from tests.kernels import oracle


@st.composite
def delayed_netlist_with_stimulus(draw):
    """A random LUT netlist (arity 1-4) with random delays and stimulus.

    Node and edge delays are drawn per node and per edge, so float32
    rounding differs from path to path.
    """
    width = draw(st.integers(2, 6))
    nl = Netlist("random")
    nodes = list(nl.add_input_bus("a", width))
    for _ in range(draw(st.integers(1, 40))):
        arity = draw(st.integers(1, 4))
        fanins = [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(arity)]
        tt = draw(st.integers(0, (1 << (1 << arity)) - 1))
        nodes.append(nl.add_lut(tt, fanins))
    outs = draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=4))
    nl.set_output_bus("o", [nodes[i] for i in outs])
    compiled = nl.compile()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = compiled.n_nodes
    node_delay = np.where(compiled.lut_mask, rng.uniform(0.05, 1.3, n), 0.0)
    edge_delay = np.where(
        compiled.lut_mask[:, None], rng.uniform(0.0, 0.9, (n, 4)), 0.0
    )
    stim = rng.integers(0, 1 << width, draw(st.integers(2, 60)))
    return compiled, {"a": bits_from_ints(stim, width)}, node_delay, edge_delay


def _settle_bound(compiled, node_delay, edge_delay):
    return arrival_times(compiled, node_delay, edge_delay, dtype=np.float32)


def _assert_settle_within_bound(compiled, inputs, node_delay, edge_delay):
    bound = _settle_bound(compiled, node_delay, edge_delay)
    for simulate in (simulate_transitions, oracle.simulate_transitions):
        res = simulate(compiled, inputs, node_delay, edge_delay)
        assert np.all(res.settle <= bound[:, None]), simulate.__module__


class TestSettleBound:
    @given(delayed_netlist_with_stimulus())
    @settings(max_examples=60, deadline=None)
    def test_no_settle_time_exceeds_bound(self, case):
        _assert_settle_within_bound(*case)

    @given(delayed_netlist_with_stimulus())
    @settings(max_examples=40, deadline=None)
    def test_bound_tracks_float64_sta(self, case):
        compiled, _, node_delay, edge_delay = case
        bound = _settle_bound(compiled, node_delay, edge_delay)
        assert bound.dtype == np.float32
        np.testing.assert_allclose(
            bound, arrival_times(compiled, node_delay, edge_delay), rtol=1e-6, atol=0
        )

    def test_placed_9x9_multiplier(self):
        placed = SynthesisFlow(make_device(42)).run(multiplier_netlist(9, 9), lint=False)
        rng = np.random.default_rng(0)
        inputs = {
            "a": bits_from_ints(rng.integers(0, 512, 600), 9),
            "b": bits_from_ints(rng.integers(0, 512, 600), 9),
        }
        _assert_settle_within_bound(
            placed.netlist, inputs, placed.node_delay, placed.edge_delay
        )
        np.testing.assert_allclose(
            _settle_bound(placed.netlist, placed.node_delay, placed.edge_delay),
            placed.device_sta().arrival,
            rtol=1e-6,
            atol=0,
        )
