"""Tests for repro.config."""

import pytest

from repro.config import (
    ResilienceSettings,
    TableISettings,
    TimingConfig,
    mhz_to_period_ns,
    period_ns_to_mhz,
)
from repro.errors import ConfigError


class TestUnitConversions:
    def test_mhz_to_period(self):
        assert mhz_to_period_ns(100.0) == pytest.approx(10.0)

    def test_period_to_mhz(self):
        assert period_ns_to_mhz(5.0) == pytest.approx(200.0)

    def test_roundtrip(self):
        assert period_ns_to_mhz(mhz_to_period_ns(310.0)) == pytest.approx(310.0)

    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_nonpositive_frequency_rejected(self, bad):
        with pytest.raises(ConfigError):
            mhz_to_period_ns(bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_period_rejected(self, bad):
        with pytest.raises(ConfigError):
            period_ns_to_mhz(bad)


class TestTimingConfig:
    def test_defaults_valid(self):
        cfg = TimingConfig()
        assert cfg.lut_delay_ns > 0
        assert cfg.tool_guard_band >= 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(lut_delay_ns=-0.1)

    def test_guard_band_below_one_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(tool_guard_band=0.9)

    def test_slow_corner_below_one_rejected(self):
        with pytest.raises(ConfigError):
            TimingConfig(slow_corner_factor=0.5)


class TestTableISettings:
    def test_paper_defaults(self):
        s = TableISettings()
        assert (s.p, s.k) == (6, 3)
        assert s.n_characterization == 4900
        assert s.n_train == 100
        assert s.n_test == 5000
        assert s.betas == (4.0, 8.0)
        assert s.q == 5
        assert s.clock_frequency_mhz == 310.0
        assert s.input_wordlength == 9
        assert s.coeff_wordlengths == tuple(range(3, 10))
        assert s.burn_in == 1000
        assert s.n_samples == 3000

    def test_k_greater_than_p_rejected(self):
        with pytest.raises(ConfigError):
            TableISettings(p=3, k=4)

    def test_zero_q_rejected(self):
        with pytest.raises(ConfigError):
            TableISettings(q=0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ConfigError):
            TableISettings(betas=(4.0, 0.0))

    def test_bad_wordlength_range_rejected(self):
        with pytest.raises(ConfigError):
            TableISettings(min_coeff_wordlength=5, max_coeff_wordlength=3)

    def test_scaled_reduces_counts(self):
        s = TableISettings().scaled(0.1)
        assert s.n_characterization == 490
        assert s.n_test == 500
        assert s.burn_in == 100
        assert s.n_samples == 300

    def test_scaled_keeps_structure(self):
        s = TableISettings().scaled(0.01)
        assert (s.p, s.k, s.q) == (6, 3, 5)
        assert s.clock_frequency_mhz == 310.0
        assert s.coeff_wordlengths == tuple(range(3, 10))

    def test_scaled_floors(self):
        s = TableISettings().scaled(1e-6)
        assert s.n_train >= 20
        assert s.burn_in >= 5
        assert s.n_samples >= 10

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            TableISettings().scaled(0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_scaled_rejects_nonfinite(self, factor):
        with pytest.raises(ConfigError, match="finite and positive"):
            TableISettings().scaled(factor)


class TestResilienceSettings:
    @pytest.mark.parametrize(
        "timeout", [0.0, -1.0, float("nan"), float("inf")],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_shard_timeout_must_be_finite_and_positive(self, timeout):
        with pytest.raises(ConfigError, match="finite and positive"):
            ResilienceSettings(shard_timeout_s=timeout)

    def test_backoff_schedule_doubles_up_to_two_seconds(self):
        from repro.parallel.retry import backoff_delay

        policy = ResilienceSettings(backoff_base_s=0.05, backoff_jitter=0.0)
        delays = [backoff_delay(policy, 7, k, "shard") for k in range(7)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
