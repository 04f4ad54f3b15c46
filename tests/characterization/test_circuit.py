"""Tests for one characterisation run of the placed multiplier (``error_trace``)."""

import numpy as np
import pytest

from repro.characterization import error_trace
from repro.errors import CharacterizationError
from repro.rng import SeedTree


def _stimulus(n_samples, location=(0, 0), seed=0):
    """The stream ``error_trace`` draws for these arguments (8-bit data)."""
    tree = SeedTree(seed).child("trace", str(location))
    return tree.rng("stimulus").integers(0, 256, size=n_samples + 1, dtype=np.int64)


class TestRun:
    def test_slow_clock_error_free(self, device):
        run = error_trace(device, 222, 100.0, 400)
        assert run.error_rate == 0.0
        assert run.error_variance == 0.0

    def test_overclocked_run_produces_errors(self, device):
        run = error_trace(device, 255, 420.0, 400)
        assert run.error_rate > 0.0
        assert run.error_variance > 0.0

    def test_expected_matches_exact_products(self, device):
        run = error_trace(device, 7, 100.0, 100)
        # Capture cycles correspond to stimulus words 1..N-1.
        assert np.array_equal(run.expected, 7 * _stimulus(100)[1:])

    def test_achieved_frequency_is_pll_grid(self, device):
        run = error_trace(device, 9, 313.0, 50)
        assert run.freq_mhz == device.family.pll.synthesize(313.0).achieved_mhz
        assert abs(run.freq_mhz - 313.0) / 313.0 < 0.01

    def test_multiplicand_range_enforced(self, device):
        for m in (256, -1):
            with pytest.raises(CharacterizationError):
                error_trace(device, m, 100.0, 10)

    def test_short_stimulus_rejected(self, device):
        with pytest.raises(CharacterizationError):
            error_trace(device, 3, 100.0, 0)

    def test_errors_property(self, device):
        run = error_trace(device, 255, 430.0, 400, seed=2)
        assert np.array_equal(run.errors, run.captured - run.expected)
