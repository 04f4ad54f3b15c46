"""Tests for repro.circuits.datapath."""

import numpy as np
import pytest

import repro.circuits.datapath as datapath_module
from repro.circuits.datapath import ProjectionDatapath
from repro.core.klt import klt_reference_design
from repro.core.quantize import quantize_data
from repro.datasets import low_rank_gaussian
from repro.errors import DesignError, TimingError
from repro.fabric import make_device
from repro.netlist.core import bits_from_ints
from repro.parallel.cache import PlacedDesignCache
from repro.timing.capture import capture_stream
from repro.timing.simulator import simulate_transitions


@pytest.fixture(scope="module")
def design():
    x = low_rank_gaussian(6, 3, 150, np.random.default_rng(0), noise=0.02)
    return klt_reference_design(x, 3, 5, 9, 310.0)


@pytest.fixture(scope="module")
def datapath(design, device):
    return ProjectionDatapath(design, device, anchor=(0, 0), seed=0)


def _mags(design, n=40, seed=1):
    x = low_rank_gaussian(6, 3, n, np.random.default_rng(seed), noise=0.02)
    return quantize_data(x, design.w_data).magnitudes


class TestConstruction:
    def test_one_lane_per_column(self, datapath, design):
        assert len(datapath.lanes) == design.k

    def test_lanes_at_distinct_locations(self, datapath):
        anchors = {pd.placement.anchor for pd in datapath.lanes}
        assert len(anchors) == len(datapath.lanes)

    def test_total_area_sums_lanes(self, datapath):
        assert datapath.total_area_le == sum(
            pd.area.logic_elements for pd in datapath.lanes
        )

    def test_fmax_is_worst_lane(self, datapath):
        tool = [pd.tool_report.fmax_mhz for pd in datapath.lanes]
        assert datapath.tool_fmax_mhz() == min(tool)
        dev = [pd.device_sta().fmax_mhz for pd in datapath.lanes]
        assert datapath.device_fmax_mhz() == min(dev)

    def test_tool_below_device(self, datapath):
        assert datapath.tool_fmax_mhz() < datapath.device_fmax_mhz()


class TestLaneExecution:
    def test_slow_clock_exact_products(self, datapath, design):
        mags = _mags(design)
        run = datapath.run_lane(0, mags, 100.0, np.random.default_rng(0))
        assert run.error_rate == 0.0
        expected = (mags.T.reshape(-1)) * np.tile(design.magnitudes[:, 0], mags.shape[1])
        assert np.array_equal(run.captured_products, expected)

    def test_overclocked_lane_errs(self, datapath, design):
        mags = _mags(design, n=150)
        run = datapath.run_lane(0, mags, 520.0, np.random.default_rng(0))
        assert run.error_rate > 0.0

    def test_wrong_p_rejected(self, datapath):
        with pytest.raises(DesignError):
            datapath.run_lane(0, np.zeros((4, 10), dtype=np.int64), 100.0, np.random.default_rng(0))

    def test_stream_order_sample_major(self, datapath, design):
        """The lane consumes x component-by-component within each sample."""
        mags = _mags(design, n=3)
        run = datapath.run_lane(1, mags, 50.0, np.random.default_rng(0))
        coeffs = design.magnitudes[:, 1]
        expected = np.concatenate([mags[:, i] * coeffs for i in range(3)])
        assert np.array_equal(run.captured_products, expected)


@pytest.fixture
def simulate_calls(monkeypatch):
    """Count the datapath's calls into the transition simulator."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return simulate_transitions(*args, **kwargs)

    monkeypatch.setattr(datapath_module, "simulate_transitions", spy)
    return calls


class TestProvenOnTimeLanes:
    """A lane whose settle bound meets the clock skips the simulation."""

    def _explicit_run(self, datapath, design, mags, freq, rng):
        """Simulate and capture lane 0 explicitly, with no shortcut."""
        placed = datapath.lanes[0]
        a = np.concatenate([[0], mags.T.reshape(-1)])
        b = np.concatenate([[0], np.tile(design.magnitudes[:, 0], mags.shape[1])])
        inputs = {
            "a": bits_from_ints(a, design.w_data),
            "b": bits_from_ints(b, design.wordlengths[0]),
        }
        timing = simulate_transitions(
            placed.netlist, inputs, placed.node_delay, placed.edge_delay
        )
        pll = datapath.device.family.pll
        return capture_stream(
            timing,
            "p",
            pll.synthesize(freq).achieved_mhz,
            setup_ns=placed.setup_ns,
            jitter=pll.jitter,
            rng=rng,
        )

    @pytest.mark.parametrize("freq, proven", [(100.0, True), (520.0, False)])
    def test_matches_explicit_simulation(
        self, datapath, design, simulate_calls, freq, proven
    ):
        mags = _mags(design, n=150)
        assert (datapath.lane_slack_ns(0, freq) >= 0.0) == proven
        rng = np.random.default_rng(5)
        run = datapath.run_lane(0, mags, freq, rng)
        assert len(simulate_calls) == (0 if proven else 1)

        ref_rng = np.random.default_rng(5)
        cap = self._explicit_run(datapath, design, mags, freq, ref_rng)
        assert np.array_equal(run.captured_products, cap.captured_ints())
        assert np.array_equal(run.exact_products, cap.ideal_ints())
        # Both generators drew the same jitter, so they continue alike.
        assert np.array_equal(rng.random(8), ref_rng.random(8))

    def test_empty_stream_still_rejected(self, datapath, design, simulate_calls):
        empty = np.zeros((design.p, 0), dtype=np.int64)
        with pytest.raises(TimingError, match="at least 2"):
            datapath.run_lane(0, empty, 100.0, np.random.default_rng(0))
        assert simulate_calls == []


class TestToolFmaxIsProvenSafe:
    def test_every_lane_meets_its_tool_fmax_on_20_dies(self):
        """Fig. 1's premise fA < fB, exactly: at the PLL clock for the
        tool-reported Fmax, no lane of a KLT datapath (wl 3, 6, 9) can
        capture a late bit, on any of dies 0-19."""
        x = low_rank_gaussian(6, 3, 150, np.random.default_rng(0), noise=0.02)
        designs = [klt_reference_design(x, 3, wl, 9, 310.0) for wl in (3, 6, 9)]
        slacks = []
        for serial in range(20):
            device = make_device(serial)
            cache = PlacedDesignCache()
            for d in designs:
                path = ProjectionDatapath(d, device, seed=serial, cache=cache)
                fmax = path.tool_fmax_mhz()
                slacks += [path.lane_slack_ns(k, fmax) for k in range(d.k)]
        assert len(slacks) == 180
        assert min(slacks) >= 0.0, f"smallest slack {min(slacks):.3f} ns"
