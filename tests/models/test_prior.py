"""Tests for repro.models.prior — eq. (6) and Fig. 7 behaviour."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.models.prior import CoefficientPrior, prior_over_magnitudes
from tests.conftest import make_synthetic_error_model


class TestPriorFunction:
    def test_normalised(self):
        v = np.array([0.0, 10.0, 100.0, 1e6])
        p = prior_over_magnitudes(v, beta=2.0)
        assert p.sum() == pytest.approx(1.0)

    def test_monotone_decreasing_in_variance(self):
        v = np.array([0.0, 1.0, 10.0, 100.0])
        p = prior_over_magnitudes(v, beta=1.0)
        assert np.all(np.diff(p) < 0)

    def test_beta_zero_rejected(self):
        with pytest.raises(ModelError):
            prior_over_magnitudes(np.array([1.0]), beta=0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ModelError):
            prior_over_magnitudes(np.array([-1.0]), beta=1.0)

    @given(st.floats(min_value=0.05, max_value=10.0))
    def test_always_a_distribution(self, beta):
        v = np.array([0.0, 5.0, 50.0, 500.0])
        p = prior_over_magnitudes(v, beta)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p > 0)


class TestCoefficientPrior:
    def _prior(self, beta, freq=350.0, wl=4):
        return CoefficientPrior.from_error_model(
            make_synthetic_error_model(wl), freq, beta
        )

    def test_signed_grid_symmetric(self):
        p = self._prior(1.0)
        assert p.values[0] == pytest.approx(-p.values[-1])
        assert p.n_values == 2 * 16 - 1  # zero not duplicated

    def test_grid_spans_unit_interval(self):
        p = self._prior(1.0)
        assert p.values.min() >= -1.0 and p.values.max() < 1.0

    def test_same_magnitude_same_mass(self):
        p = self._prior(2.0)
        # mass(-v) == mass(+v): sign path is timing-free.
        assert p.mass[0] == pytest.approx(p.mass[-1])

    def test_small_beta_nearly_flat(self):
        """Fig. 7: beta = 0.1 -> almost uniform sampling probability."""
        p = self._prior(0.1)
        assert p.mass.max() / p.mass.min() < 3.0

    def test_large_beta_suppresses_bad_values(self):
        """Fig. 7: beta = 4 -> error-prone values effectively excluded."""
        p = self._prior(4.0)
        assert p.mass.max() / p.mass.min() > 1e4

    def test_entropy_decreases_with_beta(self):
        entropies = [self._prior(b).entropy() for b in (0.1, 1.0, 4.0)]
        assert entropies == sorted(entropies, reverse=True)

    def test_error_free_frequency_flat_prior(self):
        # At the lowest characterised frequency all variances are zero.
        p = self._prior(4.0, freq=250.0)
        assert p.mass.max() == pytest.approx(p.mass.min())

    def test_magnitude_of_roundtrip(self):
        p = self._prior(1.0)
        idx = np.arange(p.n_values)
        mags = p.magnitude_of(idx)
        assert np.array_equal(
            mags, np.abs(np.rint(p.values * (1 << p.wordlength))).astype(int)
        )

    def test_variances_aligned(self):
        p = self._prior(1.0)
        assert p.variances is not None
        assert p.variances.shape == p.values.shape
        # Mass must be the eq.-6 transform of the aligned variances.
        expected = (1.0 + p.variances) ** -1.0
        assert np.allclose(p.mass, expected / expected.sum())


class TestPriorValidation:
    """A prior's grid and mass must be finite; its mass non-negative with a
    positive entry.  The Gibbs sampler's window bound needs a finite
    ascending grid and a finite largest log mass."""

    def _base(self):
        return CoefficientPrior.from_error_model(make_synthetic_error_model(2), 350.0, 1.0)

    def test_base_prior_is_valid(self):
        assert self._base().n_values == 7

    @pytest.mark.parametrize(
        "mass",
        [
            [np.nan, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, -0.5, 0.5, 0.0, 0.0, 0.0],
            [np.inf, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [0.0] * 7,
        ],
        ids=["nan", "negative", "inf", "all-zero"],
    )
    def test_bad_mass_rejected(self, mass):
        with pytest.raises(ModelError):
            dataclasses.replace(self._base(), mass=np.array(mass))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_non_finite_grid_value_rejected(self, bad, where):
        base = self._base()
        values = base.values.copy()
        values[where] = bad
        with pytest.raises(ModelError):
            dataclasses.replace(base, values=values)

    def test_zero_mass_entries_stay_legal(self):
        base = self._base()
        mass = np.where(base.values < 0, 0.0, base.mass)
        prior = dataclasses.replace(base, mass=mass / mass.sum())
        assert np.isneginf(prior.log_mass()).sum() == 3


class TestStaticProfilePrior:
    @pytest.fixture(scope="class")
    def profile(self, placed_mult8):
        from repro.analysis import coefficient_timing_profile

        return coefficient_timing_profile(
            placed_mult8, multiplicands=[0, 1, 37, 128, 222, 255]
        )

    def test_builds_and_normalises(self, profile):
        p = CoefficientPrior.from_static_profile(profile, 600.0, beta=1.0)
        assert p.mass.sum() == pytest.approx(1.0)
        assert p.wordlength == 8
        assert np.all(np.diff(p.values) > 0)

    def test_m0_gets_maximal_mass(self, profile):
        # m=0 never errs at any frequency: its static variance proxy is 0.
        p = CoefficientPrior.from_static_profile(profile, 2000.0, beta=2.0)
        zero_idx = int(np.argmin(np.abs(p.values)))
        assert p.mass[zero_idx] == pytest.approx(p.mass.max())

    def test_flat_at_slow_clock(self, profile):
        # Below every min_period the proxy is all-zero: uniform prior.
        p = CoefficientPrior.from_static_profile(profile, 1.0, beta=4.0)
        assert p.mass.max() == pytest.approx(p.mass.min())

    def test_sign_symmetry(self, profile):
        p = CoefficientPrior.from_static_profile(profile, 600.0, beta=1.0)
        assert p.mass[0] == pytest.approx(p.mass[-1])

    def test_wordlength_override(self, profile):
        p = CoefficientPrior.from_static_profile(
            profile, 600.0, beta=1.0, wordlength=9
        )
        assert p.wordlength == 9
        assert np.all(np.abs(p.values) < 1.0)
