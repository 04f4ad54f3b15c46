"""Tests for repro.core.optimizer — Algorithm 1."""

import hashlib
import json

import numpy as np
import pytest

from repro.config import TableISettings
from repro.core.optimizer import OptimizerConfig, optimize_designs
from repro.datasets import low_rank_gaussian
from repro.errors import OptimizationError
from repro.models.area_model import AreaModel

SETTINGS = TableISettings(
    n_characterization=100,
    n_train=60,
    n_test=100,
    burn_in=40,
    n_samples=160,
    q=4,
    min_coeff_wordlength=3,
    max_coeff_wordlength=6,
)

AREA_MODEL = AreaModel(
    coeffs=np.array([0.3, 25.0, 15.0]),
    residual_sigma=6.0,
    wl_range=(3, 9),
    n_samples=40,
)


#: sha256 of the fixture run's designs and candidate history (see
#: ``test_designs_and_history_bytes_are_pinned``).
PINNED_DIGEST = "7e9fcf94e1e5d4e8693fff1e844c6028b6ea9a0c6fe06693efb4993eb0500e37"


@pytest.fixture(scope="module")
def opt_config(synthetic_model_set):
    return OptimizerConfig(
        settings=SETTINGS,
        error_models=synthetic_model_set,
        area_model=AREA_MODEL,
        beta=4.0,
    )


@pytest.fixture(scope="module")
def x_train():
    return low_rank_gaussian(6, 3, 60, np.random.default_rng(0), noise=0.02)


@pytest.fixture(scope="module")
def result(opt_config, x_train):
    return optimize_designs(x_train, opt_config, seed=3)


class TestAlgorithm1:
    def test_q_designs_returned(self, result):
        assert len(result.designs) == SETTINGS.q

    def test_designs_have_k_columns(self, result):
        for d in result.designs:
            assert d.k == SETTINGS.k
            assert len(d.wordlengths) == SETTINGS.k
            assert set(d.wordlengths) <= set(SETTINGS.coeff_wordlengths)

    def test_area_estimates_attached(self, result):
        for d in result.designs:
            assert d.area_le is not None and d.area_le > 0

    def test_metadata_records_objective(self, result):
        for d in result.designs:
            md = d.metadata
            assert md["objective_t"] == pytest.approx(
                md["train_mse"] + md["overclocking_term"]
            )
            assert md["beta"] == 4.0

    def test_sampling_count_matches_runtime_model(self, result):
        """Eq. 7's structure: #wl * (1 + Q(K-1)) vector samplings."""
        n_wl = len(SETTINGS.coeff_wordlengths)
        expected = n_wl * (1 + SETTINGS.q * (SETTINGS.k - 1))
        assert len(result.sampling_times) == expected

    def test_designs_explain_data(self, result, x_train):
        from repro.core.objective import reconstruction_mse

        base = float((x_train**2).mean())
        for d in result.designs:
            assert reconstruction_mse(d.values, x_train) < 0.2 * base

    def test_deterministic(self, opt_config, x_train):
        a = optimize_designs(x_train, opt_config, seed=9)
        b = optimize_designs(x_train, opt_config, seed=9)
        for da, db in zip(a.designs, b.designs):
            assert np.array_equal(da.values, db.values)

    def test_candidate_history_recorded(self, result):
        assert len(result.candidate_history) == SETTINGS.k
        assert len(result.candidate_history[0]) == len(SETTINGS.coeff_wordlengths)

    def test_designs_and_history_bytes_are_pinned(self, result):
        """Alg. 1's output bytes at seed 3, pinned from the serial sampler.

        Any change to the draws, their order or the candidate order moves
        this digest.
        """
        record = {
            "designs": [
                {
                    "values": d.values.tolist(),
                    "magnitudes": d.magnitudes.tolist(),
                    "signs": d.signs.tolist(),
                    "wordlengths": list(d.wordlengths),
                    "area_le": float(d.area_le),
                    "metadata": {k: float(v) for k, v in sorted(d.metadata.items())},
                }
                for d in result.designs
            ],
            "candidate_history": [
                [[float(a), float(t)] for a, t in dim] for dim in result.candidate_history
            ],
        }
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert digest == PINNED_DIGEST

    def test_best_design(self, result):
        best = result.best_design()
        assert best.metadata["objective_t"] == min(
            d.metadata["objective_t"] for d in result.designs
        )


class TestValidation:
    def test_wrong_p_rejected(self, opt_config):
        with pytest.raises(OptimizationError):
            optimize_designs(np.zeros((4, 50)), opt_config, seed=0)

    def test_unscaled_data_rejected(self, opt_config):
        big = 5 * np.ones((6, 50))
        with pytest.raises(OptimizationError):
            optimize_designs(big, opt_config, seed=0)

    def test_missing_error_model_rejected(self, synthetic_model_set):
        bad_settings = TableISettings(
            min_coeff_wordlength=2, max_coeff_wordlength=6, burn_in=10, n_samples=20
        )
        with pytest.raises(OptimizationError):
            OptimizerConfig(
                settings=bad_settings,
                error_models=synthetic_model_set,  # has 3..9 only
                area_model=AREA_MODEL,
            )

    def test_bad_beta_rejected(self, synthetic_model_set):
        with pytest.raises(OptimizationError):
            OptimizerConfig(
                settings=SETTINGS,
                error_models=synthetic_model_set,
                area_model=AREA_MODEL,
                beta=0.0,
            )
