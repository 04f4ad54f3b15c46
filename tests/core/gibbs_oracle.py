"""The serial Gibbs sampler: the test suite's golden reference for Alg. 1.

One projection-vector chain at a time, every quantity a per-chain NumPy
call.  This is the sampler the library ran before
:func:`repro.core.bayesian.sample_projection_vectors` stepped all chains
of a dimension in lockstep, kept here so the lockstep sampler can be
proven bit-identical to it.  The scoring, polish and projection helpers
are the library's own: the lockstep sampler runs them per chain too.

:func:`sample_projection_vector` takes the same arguments as
:func:`repro.core.bayesian.sample_projection_vector` and returns the same
:class:`~repro.core.bayesian.SampledProjection` fields (``seconds`` stays
at its default).
"""

from __future__ import annotations

import numpy as np

from repro.core.bayesian import (
    GibbsConfig,
    SampledProjection,
    _column_mse,
    _oc_penalty,
    _polish,
)
from repro.errors import OptimizationError
from repro.models.prior import CoefficientPrior


def sample_projection_vector(
    x: np.ndarray,
    prior: CoefficientPrior,
    oc_variance_per_value: np.ndarray,
    rng: np.random.Generator,
    config: GibbsConfig = GibbsConfig(),
) -> SampledProjection:
    """Draw one projection vector for residual data ``x`` (shape (P, N)).

    Parameters
    ----------
    x:
        Residual data matrix (P, N).
    prior:
        Coefficient prior over the signed grid (carries word-length and
        target frequency).
    oc_variance_per_value:
        Over-clocking variance (value units) for each grid entry, aligned
        with ``prior.values`` — used for sample scoring.
    rng:
        Randomness source.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise OptimizationError(f"residual data must be (P, N), got {x.shape}")
    p, n = x.shape
    if n < 2:
        raise OptimizationError("need at least 2 training cases")
    grid = prior.values
    log_prior = prior.log_mass()
    oc_var = np.asarray(oc_variance_per_value, dtype=float)
    if oc_var.shape != grid.shape:
        raise OptimizationError(
            "oc_variance_per_value must align with the prior grid"
        )

    # --- initialisation -------------------------------------------------
    row_var = x.var(axis=1)
    psi = np.maximum(row_var, 1e-8)
    b0 = config.b0_scale * np.maximum(row_var, 1e-8) * (config.a0 - 1.0)

    # Start from the leading residual direction snapped to the grid.
    cov = (x @ x.T) / n
    v = np.ones(p) / np.sqrt(p)
    for _ in range(50):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            break
        v = w / norm
    lam_idx = np.abs(grid[None, :] - v[:, None]).argmin(axis=1)
    lam = grid[lam_idx]

    best: tuple[float, np.ndarray, float, float] | None = None
    n_scored = 0
    total_iters = config.burn_in + config.n_samples

    for it in range(total_iters):
        # --- 1. factors -------------------------------------------------
        w_rows = lam / psi  # (P,)
        prec_f = 1.0 + float(lam @ w_rows)
        mean_f = (w_rows @ x) / prec_f  # (N,)
        f = mean_f + rng.normal(scale=prec_f**-0.5, size=n)

        # --- 2. coefficients (exact grid conditionals) ------------------
        sff = float(f @ f)
        sxf = x @ f  # (P,)
        prec_rows = sff / psi  # (P,)
        mu_rows = np.where(sff > 0, sxf / max(sff, 1e-300), 0.0)
        # log posterior over grid: (P, G)
        delta = grid[None, :] - mu_rows[:, None]
        logits = log_prior[None, :] - 0.5 * prec_rows[:, None] * delta**2
        gumbel = rng.gumbel(size=logits.shape)
        lam_idx = np.argmax(logits + gumbel, axis=1)
        lam = grid[lam_idx]

        # --- 3. noise ----------------------------------------------------
        resid = x - np.outer(lam, f)
        shape = config.a0 + 0.5 * n
        scale = b0 + 0.5 * (resid**2).sum(axis=1)
        psi = scale / rng.gamma(shape, 1.0, size=p)
        np.clip(psi, 1e-10, None, out=psi)

        # --- scoring -----------------------------------------------------
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            mse = _column_mse(lam, x)
            oc = _oc_penalty(lam, oc_var[lam_idx], p)
            score = mse + oc
            n_scored += 1
            if best is None or score < best[0]:
                best = (score, lam_idx.copy(), mse, oc)

    if best is None:  # pragma: no cover - guarded by config validation
        raise OptimizationError("no samples were scored")

    score, idx, mse, oc = best
    if config.polish_passes:
        polished = _polish(idx, x, grid, oc_var, config.polish_passes)
        p_mse = _column_mse(grid[polished], x)
        p_oc = _oc_penalty(grid[polished], oc_var[polished], p)
        p_score = p_mse + p_oc
        if p_score < score:
            score, idx, mse, oc = p_score, polished, p_mse, p_oc
    values = grid[idx]
    mags = prior.magnitude_of(idx)
    signs = np.where(values < 0, -1, 1).astype(np.int64)
    signs = np.where(mags == 0, 1, signs)
    return SampledProjection(
        values=values,
        magnitudes=mags,
        signs=signs,
        wordlength=prior.wordlength,
        score=float(score),
        mse=float(mse),
        oc_penalty=float(oc),
        n_scored=n_scored,
    )
