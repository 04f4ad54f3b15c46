"""Tests for repro.models.area_model."""

import statistics

import numpy as np
import pytest

from repro.errors import ModelError
from repro.models.area_model import (
    AreaModel,
    AreaSample,
    collect_area_samples,
    fit_area_model,
)


@pytest.fixture(scope="module")
def samples(device):
    return collect_area_samples(device, (3, 5, 7, 9), w_data=9, n_runs=4, seed=0)


@pytest.fixture(scope="module")
def model(samples):
    return fit_area_model(samples)


class TestCollection:
    def test_sample_count(self, samples):
        assert len(samples) == 4 * 4

    def test_area_grows_with_wordlength(self, samples):
        by_wl = {}
        for s in samples:
            by_wl.setdefault(s.wordlength, []).append(s.logic_elements)
        means = [np.mean(by_wl[wl]) for wl in (3, 5, 7, 9)]
        assert means == sorted(means)

    def test_runs_scatter(self, samples):
        """Paper Fig. 6: repeated synthesis runs scatter around the trend."""
        by_wl = {}
        for s in samples:
            by_wl.setdefault(s.wordlength, set()).add(s.logic_elements)
        assert any(len(v) > 1 for v in by_wl.values())

    def test_invalid_args_rejected(self, device):
        with pytest.raises(ModelError):
            collect_area_samples(device, (), n_runs=2)
        with pytest.raises(ModelError):
            collect_area_samples(device, (3,), n_runs=0)


class TestFit:
    def test_prediction_tracks_observations(self, model, samples):
        for s in samples:
            rel = abs(float(model.predict(s.wordlength)) - s.logic_elements)
            assert rel < 0.25 * s.logic_elements + 20

    def test_confidence_interval_brackets_prediction(self, model):
        lo, hi = model.confidence_interval(5)
        mid = float(model.predict(5))
        assert lo < mid < hi

    def test_coverage_about_95_percent(self, model, samples):
        hits = sum(
            model.within_interval(s.wordlength, s.logic_elements) for s in samples
        )
        assert hits / len(samples) >= 0.8

    def test_strict_range_enforced(self, model):
        with pytest.raises(ModelError):
            model.predict(15, strict=True)

    def test_too_few_samples_rejected(self):
        tiny = [AreaSample(3, 100, 0, (0, 0)), AreaSample(4, 120, 0, (0, 0))]
        with pytest.raises(ModelError):
            fit_area_model(tiny, degree=2)

    def test_insufficient_distinct_wordlengths_rejected(self):
        flat = [AreaSample(3, 100 + i, i, (0, 0)) for i in range(6)]
        with pytest.raises(ModelError):
            fit_area_model(flat, degree=2)

    def test_design_area_scales_with_k(self, model):
        assert model.design_area(5, 3) == pytest.approx(3 * float(model.predict(5)))
        assert model.design_area(5, 3, overhead_le=40) == pytest.approx(
            3 * float(model.predict(5)) + 40
        )

    def test_design_area_invalid_k(self, model):
        with pytest.raises(ModelError):
            model.design_area(5, 0)


def _model_at_dof(dof):
    """A quadratic model whose residual dof is ``dof``."""
    return AreaModel(
        coeffs=np.array([0.5, 10.0, 30.0]), residual_sigma=0.05, wl_range=(3, 9),
        n_samples=dof + 3,
    )


class TestT95:
    # scipy.stats.t.ppf(0.975, dof), recorded.
    @pytest.mark.parametrize(
        "dof, expected",
        [
            (1, 12.706204736174694),
            (2, 4.302652729749462),
            (3, 3.1824463052837078),
            (5, 2.5705818356363146),
            (10, 2.228138851986274),
            (39, 2.022690920036761),
            (100, 1.9839715185235518),
            (1000, 1.9623390808264083),
        ],
    )
    def test_matches_scipy_quantile(self, dof, expected):
        assert _model_at_dof(dof)._t95 == pytest.approx(expected, rel=1e-12, abs=0)

    def test_falls_with_dof_toward_the_normal_quantile(self):
        z975 = statistics.NormalDist().inv_cdf(0.975)
        quantiles = [_model_at_dof(dof)._t95 for dof in [*range(1, 121), 1000]]
        assert all(a > b for a, b in zip(quantiles, quantiles[1:]))
        assert quantiles[-1] > z975

    def test_dof_floor_is_one(self):
        assert _model_at_dof(-1)._t95 == _model_at_dof(1)._t95
