"""Tests for repro.timing.sta."""

import numpy as np
import pytest

from repro.analysis.dataflow import analyze_dataflow
from repro.errors import TimingError
from repro.fabric import make_device
from repro.netlist.core import Netlist
from repro.netlist.mac import mac_block
from repro.netlist.multipliers import unsigned_array_multiplier
from repro.obs import runtime as obs
from repro.parallel.cache import multiplier_netlist
from repro.synthesis import SynthesisFlow
from repro.timing.sta import arrival_times, static_timing
from tests.timing import sta_oracle


def _chain(n_gates: int):
    """A NOT-chain netlist: arrival grows linearly with depth."""
    nl = Netlist()
    a = nl.add_input_bus("a", 1)
    node = a[0]
    for _ in range(n_gates):
        node = nl.NOT(node)
    nl.set_output_bus("o", [node])
    return nl.compile()


def _uniform_delays(c, lut=1.0, edge=0.5):
    node_delay = np.where(c.lut_mask, lut, 0.0)
    edge_delay = np.where(c.lut_mask[:, None], edge, 0.0) * np.ones((1, 4))
    return node_delay, edge_delay


class TestArrival:
    def test_chain_arrival(self):
        c = _chain(5)
        nd, ed = _uniform_delays(c)
        arr = arrival_times(c, nd, ed)
        out = c.output_buses["o"][0]
        assert arr[out] == pytest.approx(5 * 1.5)

    def test_inputs_arrive_at_zero(self):
        c = _chain(3)
        nd, ed = _uniform_delays(c)
        arr = arrival_times(c, nd, ed)
        assert arr[c.input_buses["a"][0]] == 0.0

    def test_max_over_fanins(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        slow = nl.NOT(nl.NOT(a[0]))  # depth 2
        fast = a[1]
        out = nl.AND(slow, fast)
        nl.set_output_bus("o", [out])
        c = nl.compile()
        nd, ed = _uniform_delays(c, lut=1.0, edge=0.0)
        arr = arrival_times(c, nd, ed)
        assert arr[c.output_buses["o"][0]] == pytest.approx(3.0)

    def test_shape_validation(self):
        c = _chain(2)
        with pytest.raises(TimingError):
            arrival_times(c, np.zeros(c.n_nodes + 1), np.zeros((c.n_nodes, 4)))
        with pytest.raises(TimingError):
            arrival_times(c, np.zeros(c.n_nodes), np.zeros((c.n_nodes, 3)))


class TestStaticTiming:
    def test_fmax_from_critical_path(self):
        c = _chain(10)
        nd, ed = _uniform_delays(c, lut=0.1, edge=0.0)
        res = static_timing(c, nd, ed, setup_ns=0.0)
        assert res.critical_path_ns == pytest.approx(1.0)
        assert res.fmax_mhz == pytest.approx(1000.0)

    def test_setup_time_reduces_fmax(self):
        c = _chain(10)
        nd, ed = _uniform_delays(c, lut=0.1, edge=0.0)
        with_setup = static_timing(c, nd, ed, setup_ns=0.5)
        without = static_timing(c, nd, ed, setup_ns=0.0)
        assert with_setup.fmax_mhz < without.fmax_mhz
        assert with_setup.min_period_ns == pytest.approx(1.5)

    def test_negative_setup_rejected(self):
        c = _chain(1)
        nd, ed = _uniform_delays(c)
        with pytest.raises(TimingError):
            static_timing(c, nd, ed, setup_ns=-0.1)

    def test_multiplier_msbs_slowest(self):
        """Per-output-bit Fmax: MSbs must be slowest (paper Sec. III-C)."""
        c = unsigned_array_multiplier(8, 8).compile()
        nd, ed = _uniform_delays(c, lut=0.1, edge=0.05)
        res = static_timing(c, nd, ed, setup_ns=0.0)
        per_bit = res.output_fmax_mhz("p")
        # Low product bits strictly faster than the top informative bit.
        assert per_bit[1] > per_bit[-2]

    def test_output_arrival_recorded_per_bus(self):
        nl = Netlist()
        a = nl.add_input_bus("a", 2)
        nl.set_output_bus("x", [nl.NOT(a[0])])
        nl.set_output_bus("y", [nl.NOT(nl.NOT(a[1]))])
        c = nl.compile()
        nd, ed = _uniform_delays(c, lut=1.0, edge=0.0)
        res = static_timing(c, nd, ed)
        assert res.output_arrival["x"][0] == pytest.approx(1.0)
        assert res.output_arrival["y"][0] == pytest.approx(2.0)
        assert res.critical_path_ns == pytest.approx(2.0)


class TestMatchesMaskedLoop:
    """``arrival_times`` walks the netlist's timing layout; the masked
    per-level loop it replaced (``tests/timing/sta_oracle.py``) is its
    reference, bit for bit."""

    @pytest.mark.parametrize("serial", [0, 7, 42])
    @pytest.mark.parametrize("wl", [3, 6, 9])
    @pytest.mark.parametrize("kind", ["multiplier", "mac"])
    def test_bit_identical_to_masked_loop(self, kind, wl, serial):
        if kind == "multiplier":
            netlist = multiplier_netlist(9, wl)
        else:
            netlist = mac_block(9, wl).compile()
        n = netlist.n_nodes
        rng = np.random.default_rng([serial, wl, n])
        # The masks sensitised STA passes with the multiplicand pinned.
        pinned = analyze_dataflow(netlist, {"b": (1 << wl) // 3})
        mask_sets = [
            (None, None),
            (rng.random((n, 4)) < 0.7, None),
            (None, rng.random(n) < 0.2),
            (rng.random((n, 4)) < 0.7, rng.random(n) < 0.2),
            (pinned.edge_active, pinned.node_static),
        ]
        assert not pinned.edge_active.all() and pinned.node_static.any()
        flow = SynthesisFlow(make_device(serial))
        compared = 0
        for run, anchor in enumerate(flow.available_anchors(netlist, 2)):
            placed = flow.run(netlist, anchor=anchor, seed=run, lint=False)
            for dtype in (np.float64, np.float32):
                for edge_active, node_static in mask_sets:
                    args = (netlist, placed.node_delay, placed.edge_delay,
                            edge_active, node_static, dtype)
                    got = arrival_times(*args)
                    want = sta_oracle.arrival_times(*args)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
                    compared += 1
        assert compared == 20

    def test_traced_as_timing_sta_without_a_plan_lookup(self):
        c = unsigned_array_multiplier(4, 4).compile()
        nd, ed = _uniform_delays(c, lut=0.1, edge=0.05)
        with obs.observability(trace=False, metrics=True) as observer:
            static_timing(c, nd, ed)
            counters = observer.metrics.snapshot().counters
        assert counters["timing.sta.calls"] == 1
        assert "kernels.plan.calls" not in counters
