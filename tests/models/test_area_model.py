"""Tests for repro.models.area_model."""

import statistics

import numpy as np
import pytest

import repro.models.area_model as area_module
import repro.synthesis.flow as flow_module
from repro.errors import LintError, ModelError
from repro.models.area_model import (
    AreaModel,
    AreaSample,
    collect_area_samples,
    fit_area_model,
)
from repro.netlist.mac import mac_block


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


class TestLintOnce:
    """Each MAC netlist passes the synthesis lint gate before its first
    area report, and no sample is placed."""

    # Recorded with every sample placed and linted; reporting the areas
    # without placement must not change a sample.
    PINNED = [
        (3, 91, 3000, (0, 0)), (3, 92, 3001, (49, 0)),
        (3, 91, 3002, (0, 49)), (3, 87, 3003, (49, 49)),
        (4, 117, 4000, (0, 0)), (4, 122, 4001, (47, 0)),
        (4, 115, 4002, (0, 47)), (4, 126, 4003, (47, 47)),
        (5, 150, 5000, (0, 0)), (5, 157, 5001, (45, 0)),
        (5, 140, 5002, (0, 45)), (5, 147, 5003, (45, 45)),
    ]

    @pytest.fixture
    def spies(self, monkeypatch):
        """Record lint-gate calls, area reports, flow runs and placements,
        in order."""
        events = []

        def spy(module, name, event):
            real = getattr(module, name)

            def record(*args, **kwargs):
                events.append(event)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, record)

        spy(area_module, "check_netlist", "lint")
        spy(area_module, "area_report", "report")
        spy(flow_module, "check_netlist", "lint")
        spy(flow_module, "place_netlist", "place")
        spy(flow_module.SynthesisFlow, "run", "run")
        return events

    def test_one_lint_per_netlist_same_samples(self, device, spies):
        samples = collect_area_samples(device, (3, 4, 5), n_runs=4)
        assert spies.count("lint") == 3
        assert spies.count("place") == spies.count("run") == 0
        assert spies == (["lint"] + ["report"] * 4) * 3
        assert [
            (s.wordlength, s.logic_elements, s.seed, s.location) for s in samples
        ] == self.PINNED

    def test_dirty_mac_refused_before_placement(self, device, spies, monkeypatch):
        def dirty_mac(w_data, wl):
            nl = mac_block(w_data, wl)
            nl.AND(nl.input_buses["a"][0], nl.input_buses["b"][0])  # dead: NL002
            return nl

        monkeypatch.setattr(area_module, "mac_block", dirty_mac)
        with pytest.raises(LintError) as exc_info:
            collect_area_samples(device, (3, 4), n_runs=4)
        assert "NL002" in exc_info.value.report.rule_ids
        assert spies == ["lint"]


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
