"""Tests for repro.framework — the end-to-end Fig. 2 flow.

A single session-scoped framework instance at small scale keeps the
wall-clock cost manageable; the underlying pieces are unit-tested in their
own modules.
"""

import numpy as np
import pytest

import repro.framework
from repro import Domain, OptimizationFramework, TableISettings, make_device
from repro.characterization import CharacterizationConfig
from repro.datasets import low_rank_gaussian
from repro.framework import default_frequency_grid
from repro.obs import runtime
from repro.parallel import PlacedDesignCache

SETTINGS = TableISettings(
    n_characterization=120,
    n_train=60,
    n_test=120,
    burn_in=30,
    n_samples=120,
    q=3,
    min_coeff_wordlength=3,
    max_coeff_wordlength=6,
)

CHAR = CharacterizationConfig(
    freqs_mhz=(250.0, 310.0, 360.0, 420.0),
    n_samples=120,
    n_locations=1,
)


@pytest.fixture(scope="module")
def fw(device):
    return OptimizationFramework(device, SETTINGS, char_config=CHAR, seed=5)


@pytest.fixture(scope="module")
def data():
    x = low_rank_gaussian(6, 3, 180, np.random.default_rng(2), noise=0.02)
    return x[:, :60], x[:, 60:]


class TestDefaultFrequencyGrid:
    def test_brackets_target(self):
        grid = default_frequency_grid(310.0)
        assert min(grid) < 310.0 < max(grid)
        assert any(abs(g - 310.0) < 1e-9 for g in grid)

    def test_sorted(self):
        grid = default_frequency_grid(200.0)
        assert list(grid) == sorted(grid)


class TestCharacterize:
    def test_models_for_every_wordlength(self, fw):
        ems = fw.characterize()
        assert ems.wordlengths == SETTINGS.coeff_wordlengths

    def test_cached(self, fw):
        assert fw.characterize() is fw.characterize()


class TestPooledCharacterize:
    """``jobs`` reaches the sweep engine's shard pool, so a pooled run
    equals the serial one byte for byte and keeps its telemetry."""

    SETTINGS = TableISettings(
        n_characterization=30, min_coeff_wordlength=3, max_coeff_wordlength=4
    )
    CHAR = CharacterizationConfig(freqs_mhz=(280.0, 320.0), n_samples=30)

    def _run(self, monkeypatch, jobs):
        results = []

        def spy(*args, **kwargs):
            results.append(characterize(*args, **kwargs))
            return results[-1]

        characterize = repro.framework.characterize_multiplier
        monkeypatch.setattr(repro.framework, "characterize_multiplier", spy)
        fw = OptimizationFramework(
            make_device(7), self.SETTINGS, char_config=self.CHAR, seed=3,
            jobs=jobs, cache=PlacedDesignCache(),
        )
        with runtime.observability() as observer:
            fw.characterize()
        monkeypatch.undo()
        return results, observer

    @staticmethod
    def _sweep_spans(observer, name):
        return [
            {k: v for k, v in r.attrs.items() if k != "jobs"}
            for r in observer.tracer.records
            if r.name == name
        ]

    @pytest.mark.slow
    def test_pooled_run_matches_serial_with_its_telemetry(self, monkeypatch):
        serial, serial_obs = self._run(monkeypatch, jobs=1)
        pooled, pooled_obs = self._run(monkeypatch, jobs=2)

        det = serial_obs.metrics.snapshot().deterministic_counters()
        assert det["characterize.sweeps"] == 2
        assert pooled_obs.metrics.snapshot().deterministic_counters() == det
        for name in ("characterize.sweep", "sweep.run"):
            assert len(self._sweep_spans(serial_obs, name)) == 2
            assert self._sweep_spans(pooled_obs, name) == self._sweep_spans(
                serial_obs, name
            )
        pool_spans = [r for r in pooled_obs.tracer.records if r.name == "sweep.pool"]
        assert [r.attrs["jobs"] for r in pool_spans] == [2, 2]
        assert not any(r.name == "sweep.pool" for r in serial_obs.tracer.records)

        # The sweeps ran in this process, and their grids are equal bytes.
        assert [r.w_coeff for r in pooled] == [3, 4]
        for a, b in zip(serial, pooled):
            for grid in ("freqs_mhz", "multiplicands", "variance", "mean", "error_rate"):
                assert getattr(a, grid).tobytes() == getattr(b, grid).tobytes()
            assert a.locations == b.locations


class TestAreaModel:
    def test_fitted_and_cached(self, fw):
        am = fw.fit_area_model()
        assert am is fw.fit_area_model()
        assert float(am.predict(6)) > float(am.predict(3))


class TestOptimize(object):
    def test_produces_q_designs(self, fw, data):
        res = fw.optimize(data[0], beta=4.0)
        assert len(res.designs) == SETTINGS.q
        for d in res.designs:
            assert d.method == "of"
            assert d.freq_mhz == SETTINGS.clock_frequency_mhz

    def test_klt_baselines_one_per_wordlength(self, fw, data):
        baselines = fw.klt_baselines(data[0])
        assert [d.wordlengths[0] for d in baselines] == list(
            SETTINGS.coeff_wordlengths
        )
        areas = [d.area_le for d in baselines]
        assert areas == sorted(areas)


class TestEvaluate:
    def test_all_domains(self, fw, data):
        design = fw.klt_baselines(data[0])[1]
        evs = fw.evaluate_all_domains(design, data[1])
        assert set(evs) == {Domain.PREDICTED, Domain.SIMULATED, Domain.ACTUAL}
        for ev in evs.values():
            assert ev.mse >= 0

    def test_design_points(self, fw, data):
        designs = fw.klt_baselines(data[0])[:2]
        pts = fw.design_points(designs, data[1], Domain.PREDICTED)
        assert len(pts) == 2
        assert all(p.domain == "predicted" for p in pts)
