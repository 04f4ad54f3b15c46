"""Non-finite inputs are refused before any Gibbs sweep runs.

A NaN passes ``np.abs(x).max() > 1``, and a NaN residual used to reach the
sampler, which returned ``score = mse = nan`` with every coefficient at the
grid minimum.  The windowed Gumbel-max step also needs finite means and
precisions, so the training data, each residual and each over-clocking
table must be finite.
"""

import numpy as np
import pytest

from repro.config import TableISettings
from repro.core import optimizer
from repro.core.bayesian import GibbsConfig, sample_projection_vector
from repro.core.optimizer import OptimizerConfig, optimize_designs
from repro.datasets import low_rank_gaussian
from repro.errors import OptimizationError
from repro.models.area_model import AreaModel
from repro.models.prior import CoefficientPrior
from tests.conftest import make_synthetic_error_model

FAST = GibbsConfig(burn_in=10, n_samples=20, thin=5)


@pytest.fixture
def no_sampling(monkeypatch):
    """Fail the test if Algorithm 1 reaches the sampler."""

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(optimizer, "sample_projection_vectors", refuse)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_training_data_is_refused_before_sampling(
    synthetic_model_set, no_sampling, bad
):
    config = OptimizerConfig(
        settings=TableISettings(
            n_train=40, burn_in=10, n_samples=20, q=2,
            min_coeff_wordlength=3, max_coeff_wordlength=4,
        ),
        error_models=synthetic_model_set,
        area_model=AreaModel(
            coeffs=np.array([0.3, 25.0, 15.0]), residual_sigma=6.0, wl_range=(3, 9), n_samples=40
        ),
    )
    x = low_rank_gaussian(6, 3, 40, np.random.default_rng(0), noise=0.02)
    x[2, 7] = bad
    with pytest.raises(OptimizationError, match="finite"):
        optimize_designs(x, config, seed=42)


def _prior() -> CoefficientPrior:
    return CoefficientPrior.from_error_model(make_synthetic_error_model(3), 300.0, 4.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_residual_is_refused(bad):
    prior = _prior()
    x = np.random.default_rng(0).normal(size=(6, 20)) * 0.1
    x[0, 3] = bad
    with pytest.raises(OptimizationError, match="finite"):
        sample_projection_vector(x, prior, np.zeros(prior.n_values), np.random.default_rng(1), FAST)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_oc_table_is_refused(bad):
    prior = _prior()
    oc = np.zeros(prior.n_values)
    oc[4] = bad
    x = np.random.default_rng(0).normal(size=(6, 20)) * 0.1
    with pytest.raises(OptimizationError, match="finite"):
        sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
