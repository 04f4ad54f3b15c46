"""Tests for repro.core.bayesian — the Gibbs projection sampler."""

import hashlib

import numpy as np
import pytest

from repro.core.bayesian import (
    GibbsConfig,
    sample_projection_vector,
    sample_projection_vectors,
)
from repro.core.klt import fit_klt
from repro.core.quantize import quantize_coefficients
from repro.errors import OptimizationError
from repro.models.prior import CoefficientPrior
from tests.conftest import make_synthetic_error_model
from tests.core import gibbs_oracle


def _prior(wl=6, beta=4.0, freq=250.0):
    """Default prior at an error-free frequency: flat (pure likelihood)."""
    return CoefficientPrior.from_error_model(
        make_synthetic_error_model(wl), freq, beta
    )


def _rank1_data(p=6, n=120, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    direction = np.linalg.qr(rng.normal(size=(p, 1)))[0][:, 0]
    x = np.outer(direction, rng.normal(size=n) * 0.5)
    x += noise * rng.normal(size=(p, n))
    return x, direction


FAST = GibbsConfig(burn_in=60, n_samples=240, thin=6)


class TestRecovery:
    def test_matches_quantised_klt_on_rank1(self):
        x, _ = _rank1_data()
        prior = _prior()
        oc = np.zeros_like(prior.values)
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
        klt_dir = fit_klt(x, 1)[:, 0]
        q = quantize_coefficients(klt_dir, 6)
        from repro.core.bayesian import _column_mse

        assert s.mse <= _column_mse(q.values, x) * 1.2

    def test_deterministic_given_rng(self):
        x, _ = _rank1_data()
        prior = _prior()
        oc = np.zeros_like(prior.values)
        a = sample_projection_vector(x, prior, oc, np.random.default_rng(3), FAST)
        b = sample_projection_vector(x, prior, oc, np.random.default_rng(3), FAST)
        assert np.array_equal(a.values, b.values)

    def test_output_on_grid(self):
        x, _ = _rank1_data()
        prior = _prior(wl=4)
        oc = np.zeros_like(prior.values)
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
        grid = set(np.round(prior.values, 12))
        assert all(np.round(v, 12) in grid for v in s.values)
        assert s.wordlength == 4
        assert np.all(s.magnitudes < (1 << 4))

    def test_score_decomposition(self):
        x, _ = _rank1_data()
        prior = _prior()
        oc = np.zeros_like(prior.values)
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(1), FAST)
        assert s.score == pytest.approx(s.mse + s.oc_penalty)
        assert s.oc_penalty == 0.0  # zero oc table
        assert s.n_scored > 0


class TestPriorInfluence:
    def test_penalised_magnitudes_avoided(self):
        """With a harsh prior, dense-popcount magnitudes are avoided."""
        x, _ = _rank1_data(noise=0.05)
        wl = 6
        model = make_synthetic_error_model(wl, freqs=(250.0, 300.0, 350.0))
        # 350 MHz: variance = popcount * 200 (errors everywhere except 0).
        prior = CoefficientPrior.from_error_model(model, 350.0, beta=8.0)
        scale = 2.0 ** (-2 * (9 + wl))
        oc = prior.variances * scale
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(2), FAST)
        pop = np.array([bin(m).count("1") for m in s.magnitudes])
        # The flat-prior solution would use dense magnitudes; the harsh
        # prior must keep the average popcount low.
        flat = CoefficientPrior.from_error_model(model, 250.0, beta=8.0)
        s_flat = sample_projection_vector(
            x, flat, np.zeros_like(flat.values), np.random.default_rng(2), FAST
        )
        pop_flat = np.array([bin(m).count("1") for m in s_flat.magnitudes])
        assert pop.mean() <= pop_flat.mean()

    def test_oc_penalty_reported(self):
        x, _ = _rank1_data()
        wl = 5
        model = make_synthetic_error_model(wl)
        prior = CoefficientPrior.from_error_model(model, 350.0, beta=0.5)
        oc = prior.variances * 2.0 ** (-2 * (9 + wl))
        s = sample_projection_vector(x, prior, oc, np.random.default_rng(4), FAST)
        if np.any(s.magnitudes != 0):
            expected_nonzero = any(
                bin(m).count("1") > 0 for m in s.magnitudes
            )
            assert (s.oc_penalty > 0) == expected_nonzero


class TestValidation:
    def test_bad_data_shape_rejected(self):
        prior = _prior()
        with pytest.raises(OptimizationError):
            sample_projection_vector(
                np.zeros(5), prior, np.zeros_like(prior.values), np.random.default_rng(0), FAST
            )

    def test_too_few_cases_rejected(self):
        prior = _prior()
        with pytest.raises(OptimizationError):
            sample_projection_vector(
                np.zeros((5, 1)), prior, np.zeros_like(prior.values), np.random.default_rng(0), FAST
            )

    def test_misaligned_oc_table_rejected(self):
        x, _ = _rank1_data()
        prior = _prior()
        with pytest.raises(OptimizationError):
            sample_projection_vector(
                x, prior, np.zeros(3), np.random.default_rng(0), FAST
            )

    def test_config_validation(self):
        with pytest.raises(OptimizationError):
            GibbsConfig(burn_in=-1)
        with pytest.raises(OptimizationError):
            GibbsConfig(n_samples=0)
        with pytest.raises(OptimizationError):
            GibbsConfig(thin=0)
        with pytest.raises(OptimizationError):
            GibbsConfig(a0=1.0)
        with pytest.raises(OptimizationError):
            GibbsConfig(polish_passes=-1)


class TestPolish:
    def test_polish_never_hurts(self):
        x, _ = _rank1_data(seed=5)
        prior = _prior()
        oc = np.zeros_like(prior.values)
        rough = sample_projection_vector(
            x, prior, oc, np.random.default_rng(7),
            GibbsConfig(burn_in=20, n_samples=40, thin=4, polish_passes=0),
        )
        polished = sample_projection_vector(
            x, prior, oc, np.random.default_rng(7),
            GibbsConfig(burn_in=20, n_samples=40, thin=4, polish_passes=6),
        )
        assert polished.score <= rough.score + 1e-12


def _lockstep_case():
    """Nine chains: word-lengths {3, 5, 9} on three residuals, two identical.

    At 300 MHz and beta 0.5 the prior is mild and the over-clocking
    penalty non-zero, so the chains land on non-zero, differing designs.
    """
    priors = {
        wl: CoefficientPrior.from_error_model(make_synthetic_error_model(wl), 300.0, 0.5)
        for wl in (3, 5, 9)
    }
    ocs = {wl: prior.variances * 2.0 ** (-2 * (9 + wl)) for wl, prior in priors.items()}
    a, _ = _rank1_data(n=20, seed=11, noise=0.05)
    b, _ = _rank1_data(n=20, seed=12, noise=0.2)
    chains = [(x, wl) for x in (a, a.copy(), b) for wl in (3, 5, 9)]
    xs = [x for x, _ in chains]
    return xs, [priors[wl] for _, wl in chains], [ocs[wl] for _, wl in chains]


FIELDS = ("values", "magnitudes", "signs", "wordlength", "score", "mse", "oc_penalty",
          "n_scored")


class _LogitsProbe(np.ndarray):
    """A Gumbel draw that logs the logits it is added to.

    The lockstep ``logits[j] += g`` and the oracle's ``logits + g`` both
    dispatch here before adding, so ``log`` receives the chain's
    pre-Gumbel logits exactly (shape, dtype and a digest of the bytes).
    """

    log: list

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert (ufunc, method) == (np.add, "__call__")
        (logits,) = [x for x in inputs if x is not self]
        digest = hashlib.sha256(np.ascontiguousarray(logits).tobytes()).hexdigest()
        self.log.append((logits.shape, logits.dtype.str, digest))
        plain = [x.view(np.ndarray) if x is self else x for x in inputs]
        return ufunc(*plain, **kwargs)


class _RecordingGenerator:
    """A seeded generator that logs every draw with its arguments.

    The normal's scale is ``(1 + lambda . lambda / psi) ** -0.5``, so the log
    pins the chain's continuous state (factors, residual, noise
    variances) every iteration, where the sampled designs would absorb a
    last-bit difference.  The coefficient logits reach results only
    through the Gumbel argmax, so each Gumbel draw is a
    :class:`_LogitsProbe` that logs them into ``logits``.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple] = []
        self.logits: list[tuple] = []

    def _draw(self, method: str, *args, **kwargs):
        self.calls.append((method, args, sorted(kwargs.items())))
        return getattr(self._rng, method)(*args, **kwargs)

    def normal(self, *args, **kwargs):
        return self._draw("normal", *args, **kwargs)

    def gumbel(self, *args, **kwargs):
        draw = self._draw("gumbel", *args, **kwargs).view(_LogitsProbe)
        draw.log = self.logits
        return draw

    def gamma(self, *args, **kwargs):
        return self._draw("gamma", *args, **kwargs)


class TestLockstep:
    def test_chains_match_the_serial_oracle_bit_for_bit(self):
        xs, priors, ocs = _lockstep_case()
        seeds = range(100, 100 + len(xs))
        rngs = [_RecordingGenerator(s) for s in seeds]
        got = sample_projection_vectors(xs, priors, ocs, rngs, FAST)
        assert len(got) == len(xs)
        for x, prior, oc, seed, rng, lockstep in zip(xs, priors, ocs, seeds, rngs, got):
            serial_rng = _RecordingGenerator(seed)
            serial = gibbs_oracle.sample_projection_vector(x, prior, oc, serial_rng, FAST)
            for name in FIELDS:
                a, b = getattr(serial, name), getattr(lockstep, name)
                assert np.array_equal(a, b), (prior.wordlength, seed, name, a, b)
                assert np.asarray(a).dtype == np.asarray(b).dtype
            # Same draws, in the same order, with bit-equal arguments.
            assert rng.calls == serial_rng.calls, (prior.wordlength, seed)
            # Every Gumbel draw met bit-equal pre-Gumbel logits.
            n_gumbel = sum(call[0] == "gumbel" for call in rng.calls)
            assert len(rng.logits) == n_gumbel > 0
            assert rng.logits == serial_rng.logits, (prior.wordlength, seed)
        assert [c[0] for c in rngs[0].calls[:3]] == ["normal", "gumbel", "gamma"]
        # The fixture must exercise distinct results, not nine copies of one.
        assert len({s.score for s in got}) > 3

    def test_single_chain_call_is_the_lockstep_call(self):
        xs, priors, ocs = _lockstep_case()
        alone = sample_projection_vector(xs[2], priors[2], ocs[2], np.random.default_rng(1), FAST)
        [stepped] = sample_projection_vectors(
            xs[2:3], priors[2:3], ocs[2:3], [np.random.default_rng(1)], FAST
        )
        for name in FIELDS:
            assert np.array_equal(getattr(alone, name), getattr(stepped, name))

    def test_seconds_split_the_call_by_prior_group(self):
        xs, priors, ocs = _lockstep_case()
        got = sample_projection_vectors(
            xs, priors, ocs, [np.random.default_rng(s) for s in range(len(xs))], FAST
        )
        # One record per draw; chains of one prior share one share.
        for wl in (3, 5, 9):
            shares = {s.seconds for s in got if s.wordlength == wl}
            assert len(shares) == 1 and shares.pop() > 0

    def test_no_chains_draw_nothing(self):
        assert sample_projection_vectors([], [], [], [], FAST) == []

    def test_one_input_per_chain_required(self):
        xs, priors, ocs = _lockstep_case()
        with pytest.raises(OptimizationError):
            sample_projection_vectors(xs, priors[:-1], ocs, [np.random.default_rng(0)] * 9, FAST)

    def test_residual_shapes_must_agree(self):
        xs, priors, ocs = _lockstep_case()
        xs[4] = xs[4][:, :-1]
        with pytest.raises(OptimizationError):
            sample_projection_vectors(
                xs, priors, ocs, [np.random.default_rng(s) for s in range(9)], FAST
            )
