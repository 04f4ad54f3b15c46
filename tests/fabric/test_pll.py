"""Tests for repro.fabric.pll."""

import pytest

from repro.errors import ConfigError
from repro.fabric.pll import PLL, PLLConfig


class TestSynthesize:
    @pytest.mark.parametrize("target", [50.0, 100.0, 310.0, 320.0, 340.0, 450.0])
    def test_close_to_request(self, target):
        clock = PLL().synthesize(target)
        assert abs(clock.achieved_mhz - target) / target < 0.01

    def test_vco_constraint_respected(self):
        pll = PLL()
        clock = pll.synthesize(310.0)
        vco = pll.config.reference_mhz * clock.m / clock.n
        assert pll.config.vco_min_mhz <= vco <= pll.config.vco_max_mhz

    def test_period_consistent(self):
        clock = PLL().synthesize(200.0)
        assert clock.period_ns == pytest.approx(1000.0 / clock.achieved_mhz)

    def test_error_ppm(self):
        clock = PLL().synthesize(310.0)
        assert clock.error_ppm < 10000  # < 1%

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            PLL().synthesize(0.0)

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            PLL().synthesize(float("nan"))

    def test_deterministic(self):
        a = PLL().synthesize(333.0)
        b = PLL().synthesize(333.0)
        assert (a.m, a.n, a.c) == (b.m, b.n, b.c)


class TestConfigValidation:
    def test_bad_reference(self):
        with pytest.raises(ConfigError):
            PLLConfig(reference_mhz=0.0)

    def test_bad_divider_range(self):
        with pytest.raises(ConfigError):
            PLLConfig(m_range=(4, 2))

    def test_bad_vco(self):
        with pytest.raises(ConfigError):
            PLLConfig(vco_min_mhz=1000.0, vco_max_mhz=500.0)
