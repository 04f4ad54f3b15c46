"""Gibbs sampling of projection vectors (paper Sec. V, after ref. [9]).

Algorithm 1 estimates the projection matrix one column at a time; each
column is drawn from the posterior of a single-factor Bayesian model of
the *residual* data

``x_pi = lambda_p * f_i + e_pi``,  ``f_i ~ N(0, 1)``,  ``e_pi ~ N(0, psi_p)``

where the coefficients ``lambda_p`` live on the discrete sign-magnitude
grid of the current word-length and carry the over-clocking prior
``g(E(lambda, freq))`` of eq. (6).  Because the grid is finite, the
coefficient conditionals are *exact* categorical distributions: the
Gaussian conditional likelihood is evaluated on the grid, multiplied by
the prior mass, normalised and sampled — no Metropolis step is needed.

Gibbs sweep:

1. ``f | lambda, psi, X`` — Gaussian, sampled for all N cases at once;
2. ``lambda_p | f, psi, X`` — independent categorical per row ``p``
   (Gumbel-max sampling over the grid, certified against libm's log:
   :func:`_gumbel_argmax`);
3. ``psi_p | lambda, f, X`` — inverse gamma.

After burn-in, thinned samples are scored with the local objective
(column reconstruction MSE plus the column's over-clocking variance
penalty) and the best-scoring sample is returned — the sampling-based
minimisation of T the paper describes in Sec. V-C.

Algorithm 1 draws every candidate of one dimension with one
:func:`sample_projection_vectors` call, which steps all its chains in
lockstep on stacked arrays; each chain's draws and result are
bit-identical to running it alone.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ..errors import OptimizationError
from ..models.prior import CoefficientPrior

__all__ = [
    "GibbsConfig",
    "SampledProjection",
    "sample_projection_vector",
    "sample_projection_vectors",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings (Table I: burn-in 1000, 3000 samples).

    Attributes
    ----------
    burn_in:
        Discarded initial sweeps.
    n_samples:
        Post-burn-in sweeps.
    thin:
        Keep every ``thin``-th post-burn-in sample for scoring.
    a0, b0_scale:
        Inverse-gamma noise prior: shape ``a0``, scale
        ``b0_scale * row variance`` (weakly informative, data-scaled).
    """

    burn_in: int = 1000
    n_samples: int = 3000
    thin: int = 10
    a0: float = 2.0
    b0_scale: float = 0.5
    polish_passes: int = 4

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.n_samples < 1:
            raise OptimizationError("invalid burn-in / sample counts")
        if self.thin < 1:
            raise OptimizationError("thin must be >= 1")
        if self.a0 <= 1.0:
            raise OptimizationError("a0 must exceed 1 for a finite prior mean")
        if self.b0_scale <= 0:
            raise OptimizationError("b0_scale must be positive")
        if self.polish_passes < 0:
            raise OptimizationError("polish_passes must be non-negative")


@dataclass(frozen=True)
class SampledProjection:
    """Best-scoring projection vector from one Gibbs run.

    Attributes
    ----------
    values:
        Grid coefficient values, shape ``(P,)``.
    magnitudes, signs:
        Sign-magnitude decomposition.
    wordlength:
        Grid word-length.
    score:
        Local objective (column MSE + over-clocking penalty / P).
    mse:
        Column reconstruction MSE alone.
    oc_penalty:
        Over-clocking variance term alone.
    n_scored:
        Number of thinned samples that competed.
    seconds:
        This draw's share of the sampling call's wall time (see
        :func:`sample_projection_vectors`); never feeds a result.
    """

    values: np.ndarray
    magnitudes: np.ndarray
    signs: np.ndarray
    wordlength: int
    score: float
    mse: float
    oc_penalty: float
    n_scored: int
    seconds: float = 0.0


def _oc_penalty(lam: np.ndarray, per_coeff_var: np.ndarray, p: int) -> float:
    """Column over-clocking penalty with dual-reconstruction amplification.

    The host-side dual reconstruction scales a column's factor error by
    ``1 / ||lambda||^2`` in energy, so the penalty is
    ``sum_p var(eps_p) / (P * ||lambda||^2)`` — for a unit-norm column this
    reduces to the paper's plain ``sum var / P``.
    """
    norm_sq = float(lam @ lam)
    return float(per_coeff_var.sum()) / (p * max(norm_sq, 1e-6))


def _polish(
    lam_idx: np.ndarray,
    x: np.ndarray,
    grid: np.ndarray,
    oc_var: np.ndarray,
    passes: int,
) -> np.ndarray:
    """Coordinate-descent refinement of a sampled column on the grid.

    Alternates an exact LS factor refit with per-coefficient exact grid
    minimisation of the local objective ``column_MSE + oc_penalty / P``.
    Both half-steps never increase the objective, so the refinement is a
    deterministic descent from the sampled start — the sampler explores,
    the polish lands each explored basin on its floor (the "designs that
    minimise the objective function T" of paper Sec. V-C).
    """
    p, n = x.shape
    idx = lam_idx.copy()
    for _ in range(passes):
        lam = grid[idx]
        denom = float(lam @ lam)
        if denom <= 0.0:
            f = np.zeros(n)
        else:
            f = (lam @ x) / denom
        sff = float(f @ f)
        if sff <= 0.0:
            break
        sxf = x @ f  # (P,)
        # ||x_p - v f||^2 = ||x_p||^2 - 2 v sxf_p + v^2 sff ; constant
        # terms drop from the argmin.  Objective per grid value v adds the
        # over-clocking penalty N * oc_var(v) / ||lambda||^2 (both sides
        # scaled by P*N; the dual amplification uses the current norm).
        cost = (
            -2.0 * sxf[:, None] * grid[None, :]
            + sff * grid[None, :] ** 2
            + n * oc_var[None, :] / max(denom, 1e-6)
        )
        new_idx = np.argmin(cost, axis=1)
        if np.array_equal(new_idx, idx):
            break
        idx = new_idx
    return idx


#: Certification margin of :func:`_gumbel_argmax`, relative to ``1 + |max|``.
#: NumPy's SIMD log differs from libm's by a few ulp (a Gumbel by at most
#: 8.9e-16 over 2 M draws on an AVX-512 host), far inside this margin.
_TAU = 1e-9


def _fill_uniforms(rngs: Sequence[np.random.Generator], out: np.ndarray) -> None:
    """Fill ``out[j]`` with the doubles ``rngs[j].gumbel(size=out[j].shape)`` reads.

    NumPy's Gumbel is ``-log(-log(1 - u))`` of the generator's next double
    ``u`` and draws again when ``u`` is exactly 0.0.  So a block's zeros are
    dropped and replacements drawn until none are left, and each generator
    ends in the state ``gumbel`` leaves.
    """
    for rng, block in zip(rngs, out):
        rng.random(out=block)
    if out.all():
        return
    for rng, block in zip(rngs, out):
        flat = block.reshape(-1)
        while not flat.all():
            kept = flat[flat != 0.0]
            flat[: kept.size] = kept
            rng.random(out=flat[kept.size :])


def _gumbel_argmax(logits: np.ndarray, uniforms: np.ndarray, noisy: np.ndarray) -> np.ndarray:
    """Last-axis argmax of ``logits`` plus the Gumbels of ``uniforms``, bit for bit.

    The result equals ``np.argmax(logits + g, axis=-1)`` where ``g`` is what
    ``rng.gumbel`` makes of ``uniforms``: ``-log(-log(1 - u))`` with libm's
    ``log``.  The scores are formed in one pass with NumPy's SIMD log into
    ``noisy`` (scratch of the same shape), which may differ from libm in
    the last bits.  A row's argmax is therefore accepted only when every
    other entry lies more than ``_TAU * (1 + |max|)`` below the maximum: a
    SIMD score is within a few ulp of libm's, far less than that margin,
    so no such entry can overtake the maximum under libm.  Otherwise the
    row's entries within the margin are rescored with ``math.log`` (libm)
    and the first maximum wins, as with ``np.argmax``; the entries outside
    the margin stay below it by the same bound.
    """
    np.subtract(1.0, uniforms, out=noisy)
    np.log(noisy, out=noisy)
    np.negative(noisy, out=noisy)
    np.log(noisy, out=noisy)
    np.subtract(logits, noisy, out=noisy)
    g = noisy.shape[-1]
    scores = noisy.reshape(-1, g)
    flat = noisy.reshape(-1)
    starts = np.arange(0, flat.size, g)
    idx = scores.argmax(axis=1)
    at = starts + idx
    top = flat[at]
    flat[at] = -np.inf
    runner_up = flat[starts + scores.argmax(axis=1)]
    flat[at] = top
    floor = top - _TAU * (1.0 + np.abs(top))
    for r in (runner_up >= floor).nonzero()[0]:
        near = np.flatnonzero(scores[r] >= floor[r])
        exact = [
            lg - math.log(-math.log(1.0 - u))
            for lg, u in zip(
                logits.reshape(-1, g)[r, near].tolist(),
                uniforms.reshape(-1, g)[r, near].tolist(),
            )
        ]
        idx[r] = near[exact.index(max(exact))]
    return idx.reshape(noisy.shape[:-1])


def _column_mse(lam: np.ndarray, x: np.ndarray) -> float:
    """Residual MSE after regressing ``x`` on the single column ``lam``."""
    denom = float(lam @ lam)
    if denom <= 0.0:
        return float((x**2).sum() / x.size)
    f = (lam @ x) / denom
    err = x - np.outer(lam, f)
    return float((err**2).sum() / err.size)


class _Chain:
    """One chain's per-chain state: inputs, generator and best sample."""

    def __init__(
        self,
        x: np.ndarray,
        prior: CoefficientPrior,
        oc_variance_per_value: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise OptimizationError(f"residual data must be (P, N), got {x.shape}")
        if x.shape[1] < 2:
            raise OptimizationError("need at least 2 training cases")
        oc_var = np.asarray(oc_variance_per_value, dtype=float)
        if oc_var.shape != prior.values.shape:
            raise OptimizationError(
                "oc_variance_per_value must align with the prior grid"
            )
        self.x = x
        self.prior = prior
        self.oc_var = oc_var
        self.rng = rng
        self.best: tuple[float, np.ndarray, float, float] | None = None
        self.n_scored = 0

    def start(self, config: GibbsConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Initial ``(lam_idx, psi, b0)``: the leading residual direction
        snapped to the grid, and the data-scaled noise prior."""
        x, grid = self.x, self.prior.values
        p, n = x.shape
        row_var = x.var(axis=1)
        psi = np.maximum(row_var, 1e-8)
        b0 = config.b0_scale * np.maximum(row_var, 1e-8) * (config.a0 - 1.0)
        cov = (x @ x.T) / n
        v = np.ones(p) / np.sqrt(p)
        for _ in range(50):
            w = cov @ v
            norm = np.linalg.norm(w)
            if norm < 1e-12:
                break
            v = w / norm
        lam_idx = np.abs(grid[None, :] - v[:, None]).argmin(axis=1)
        return lam_idx, psi, b0

    def score(self, lam: np.ndarray, lam_idx: np.ndarray) -> None:
        """Score one thinned sample and keep it if it is the best so far."""
        mse = _column_mse(lam, self.x)
        oc = _oc_penalty(lam, self.oc_var[lam_idx], lam.shape[0])
        score = mse + oc
        self.n_scored += 1
        if self.best is None or score < self.best[0]:
            self.best = (score, lam_idx.copy(), mse, oc)

    def finish(self, config: GibbsConfig) -> SampledProjection:
        """Polish the best sample and package it."""
        if self.best is None:  # pragma: no cover - guarded by config validation
            raise OptimizationError("no samples were scored")
        x, grid, oc_var = self.x, self.prior.values, self.oc_var
        p = x.shape[0]
        score, idx, mse, oc = self.best
        if config.polish_passes:
            polished = _polish(idx, x, grid, oc_var, config.polish_passes)
            p_mse = _column_mse(grid[polished], x)
            p_oc = _oc_penalty(grid[polished], oc_var[polished], p)
            p_score = p_mse + p_oc
            if p_score < score:
                score, idx, mse, oc = p_score, polished, p_mse, p_oc
        values = grid[idx]
        mags = self.prior.magnitude_of(idx)
        signs = np.where(values < 0, -1, 1).astype(np.int64)
        signs = np.where(mags == 0, 1, signs)
        return SampledProjection(
            values=values,
            magnitudes=mags,
            signs=signs,
            wordlength=self.prior.wordlength,
            score=float(score),
            mse=float(mse),
            oc_penalty=float(oc),
            n_scored=self.n_scored,
        )


def sample_projection_vectors(
    xs: Sequence[np.ndarray],
    priors: Sequence[CoefficientPrior],
    oc_variances: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    config: GibbsConfig = GibbsConfig(),
) -> list[SampledProjection]:
    """Draw one projection vector per chain, stepping all chains together.

    Chain ``c`` samples residual ``xs[c]`` (every residual has the same
    shape (P, N)) under ``priors[c]``, scores with ``oc_variances[c]`` and
    draws from ``rngs[c]`` alone; its result is bit-identical to running
    it by itself.  Each iteration runs the grid-independent algebra once on
    stacked ``(C, P)``, ``(C, N)`` and ``(C, P, N)`` arrays (dot products
    and gemvs as stacked ``np.matmul``, which repeats the per-chain BLAS
    call), and the grid step once per group of chains sharing a prior.
    Each chain keeps its draw order: ``normal``, the uniforms of its
    Gumbels (the doubles ``gumbel`` would read), ``gamma``.
    Initialisation, thinned scoring and polish stay per chain.

    Each result's ``seconds`` is its share of this call's wall time: the
    grid-independent time split evenly over the chains, plus its prior
    group's grid-step time split over the group.  They sum to the call.

    Parameters
    ----------
    xs:
        Residual data matrices, one per chain.
    priors:
        Coefficient prior of each chain (carries word-length and target
        frequency); chains that share a prior object share its grid step.
    oc_variances:
        Over-clocking variance (value units) for each grid entry of each
        chain's prior, aligned with ``prior.values`` — used for scoring.
    rngs:
        One randomness source per chain.
    """
    t_call = time.perf_counter()
    if not len(xs) == len(priors) == len(oc_variances) == len(rngs):
        raise OptimizationError(
            "need one residual, prior, oc table and generator per chain"
        )
    given = [_Chain(*args) for args in zip(xs, priors, oc_variances, rngs)]
    if not given:
        return []
    shapes = sorted({chain.x.shape for chain in given})
    if len(shapes) > 1:
        raise OptimizationError(f"chains disagree on the residual shape: {shapes}")
    [(p, n)] = shapes

    # Chains are reordered so each prior's group is a contiguous slice.
    # Its (C_g, P, G) logits, uniforms and noisy scores are views of three
    # scratch rows sized for the largest group.
    members: dict[int, list[int]] = {}
    for c, prior in enumerate(priors):
        members.setdefault(id(prior), []).append(c)
    order = [c for group in members.values() for c in group]
    chains = [given[c] for c in order]
    scratch = np.empty(
        (3, max(len(group) * p * priors[group[0]].n_values for group in members.values()))
    )
    groups: list[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    lo = 0
    for group in members.values():
        prior = priors[group[0]]
        rows = slice(lo, lo + len(group))
        lo = rows.stop
        dims = (len(group), p, prior.n_values)
        logits, uniforms, noisy = (row[: math.prod(dims)].reshape(dims) for row in scratch)
        groups.append((rows, prior.values, prior.log_mass(), logits, uniforms, noisy))
    grid_s = [0.0] * len(groups)

    starts = [chain.start(config) for chain in chains]
    x = np.stack([chain.x for chain in chains])  # (C, P, N)
    lam_idx = np.stack([s[0] for s in starts])  # (C, P)
    psi = np.stack([s[1] for s in starts])
    b0 = np.stack([s[2] for s in starts])
    lam = np.empty((len(chains), p))
    for rows, grid, *_ in groups:
        lam[rows] = grid[lam_idx[rows]]
    noise = np.empty((len(chains), n))
    gammas = np.empty((len(chains), p))
    shape = config.a0 + 0.5 * n

    for it in range(config.burn_in + config.n_samples):
        # --- 1. factors -------------------------------------------------
        w_rows = lam / psi  # (C, P)
        prec_f = 1.0 + np.matmul(lam[:, None, :], w_rows[:, :, None])[:, 0, 0]
        mean_f = np.matmul(w_rows[:, None, :], x)[:, 0, :] / prec_f[:, None]
        for c, chain in enumerate(chains):
            noise[c] = chain.rng.normal(scale=float(prec_f[c]) ** -0.5, size=n)
        f = mean_f + noise  # (C, N)

        # --- 2. coefficients (exact grid conditionals) ------------------
        sff = np.matmul(f[:, None, :], f[:, :, None])[:, 0, 0]
        sxf = np.matmul(x, f[:, :, None])[:, :, 0]  # (C, P)
        half_prec = 0.5 * (sff[:, None] / psi)
        mu_rows = np.where(
            (sff > 0)[:, None], sxf / np.maximum(sff, 1e-300)[:, None], 0.0
        )
        for g, (rows, grid, log_prior, logits, uniforms, noisy) in enumerate(groups):
            t0 = time.perf_counter()
            # log posterior over the grid, (C_g, P, G), then Gumbel-max.
            np.subtract(grid, mu_rows[rows, :, None], out=logits)
            np.square(logits, out=logits)
            np.multiply(half_prec[rows, :, None], logits, out=logits)
            np.subtract(log_prior, logits, out=logits)
            _fill_uniforms([chain.rng for chain in chains[rows]], uniforms)
            lam_idx[rows] = _gumbel_argmax(logits, uniforms, noisy)
            lam[rows] = grid[lam_idx[rows]]
            grid_s[g] += time.perf_counter() - t0

        # --- 3. noise ----------------------------------------------------
        resid = x - lam[:, :, None] * f[:, None, :]
        scale = b0 + 0.5 * (resid**2).sum(axis=2)
        for c, chain in enumerate(chains):
            gammas[c] = chain.rng.gamma(shape, 1.0, size=p)
        psi = scale / gammas
        np.clip(psi, 1e-10, None, out=psi)

        # --- scoring -----------------------------------------------------
        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            for c, chain in enumerate(chains):
                chain.score(lam[c], lam_idx[c])

    # Polish runs per chain; its time joins the shared part.
    finished = [chain.finish(config) for chain in chains]
    seconds = np.full(len(chains), (time.perf_counter() - t_call - sum(grid_s)) / len(chains))
    for (rows, *_), group_s in zip(groups, grid_s):
        seconds[rows] += group_s / (rows.stop - rows.start)
    return [replace(finished[k], seconds=float(seconds[k])) for k in np.argsort(order)]


def sample_projection_vector(
    x: np.ndarray,
    prior: CoefficientPrior,
    oc_variance_per_value: np.ndarray,
    rng: np.random.Generator,
    config: GibbsConfig = GibbsConfig(),
) -> SampledProjection:
    """Draw one projection vector for residual data ``x`` (shape (P, N)).

    The one-chain call of :func:`sample_projection_vectors`.

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
    return sample_projection_vectors([x], [prior], [oc_variance_per_value], [rng], config)[0]
