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
   (Gumbel-max sampling over the grid points that can win, certified
   against libm's log: :class:`_GridStep`, :func:`_gumbel_argmax`);
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

#: The Gumbel ``-log(-log(1 - u))`` of a generator double ``u`` in
#: [2**-53, 1 - 2**-53] lies in [-3.60378, 36.73681]; rounded outwards.
_GUMBEL_LOW, _GUMBEL_HIGH = -3.604, 36.737

#: How far (nats) below its anchor's logit a window reaches: past the
#: 40.341 that separates the Gumbel's bounds, so the edges can certify.
_REACH = 41.0

#: Window entries scored per pass (more when one grid is larger).
_RUN = 1 << 13

#: From a window ``[lo, hi)`` to the grid points just beyond it.
_BEYOND = np.array([[1], [0]])


def _fill_uniforms(rngs: Sequence[np.random.Generator], out: np.ndarray) -> None:
    """Fill ``out[j]`` with the doubles ``rngs[j].gumbel(size=out[j].shape)`` reads.

    NumPy's Gumbel is ``-log(-log(1 - u))`` of the generator's next double
    ``u`` and draws again when ``u`` is exactly 0.0.  So a block's zeros are
    dropped and replacements drawn until none are left, and each generator
    ends in the state ``gumbel`` leaves.
    """
    for rng, block in zip(rngs, out):
        rng.random(out=block)
    if out.min() > 0.0:
        return
    for rng, block in zip(rngs, out):
        flat = block.reshape(-1)
        while not flat.all():
            kept = flat[flat != 0.0]
            flat[: kept.size] = kept
            rng.random(out=flat[kept.size :])


def _gumbel_argmax(
    logits: np.ndarray,
    uniforms: np.ndarray,
    scores: np.ndarray,
    sizes: np.ndarray | None = None,
) -> np.ndarray:
    """Each row's argmax of ``logits`` plus the Gumbels of ``uniforms``, bit for bit.

    A row is the last axis or, given ``sizes``, one of the consecutive
    segments of those lengths of the flat arrays; the result is each row's
    index within the row.  It equals ``np.argmax`` of the row's
    ``logits + g`` where ``g`` is what ``rng.gumbel`` makes of ``uniforms``:
    ``-log(-log(1 - u))`` with libm's ``log``.  The scores are formed in
    one pass with NumPy's SIMD log into ``scores`` (scratch of the same
    shape), which may differ from libm in the last bits.  A row's argmax is
    therefore accepted only when every other entry lies more than
    ``_TAU * (1 + |max|)`` below the maximum: a SIMD score is within a few
    ulp of libm's, far less than that margin, so no such entry can
    overtake the maximum under libm.  Otherwise the row's entries within
    the margin are rescored with ``math.log`` (libm) and the first maximum
    wins, as with ``np.argmax``; the entries outside the margin stay below
    it by the same bound.
    """
    np.subtract(1.0, uniforms, out=scores)
    np.log(scores, out=scores)
    np.negative(scores, out=scores)
    np.log(scores, out=scores)
    np.subtract(logits, scores, out=scores)
    flat = scores.reshape(-1)
    dense = sizes is None
    if sizes is None:
        sizes = np.full(flat.size // scores.shape[-1], scores.shape[-1])
    ends = sizes.cumsum()
    starts = ends - sizes
    top = np.maximum.reduceat(flat, starts)
    floor = top - _TAU * (1.0 + abs(top))
    # A row's maximum is always near it, so each row owns at least one
    # entry here; when each owns just one, every argmax stands.
    near = (flat >= floor.repeat(sizes)).nonzero()[0]
    if near.size == sizes.size:
        idx = near - starts
    else:
        first, stop = near.searchsorted(starts), near.searchsorted(ends)
        idx = near[first] - starts
        for r in (stop - first > 1).nonzero()[0]:
            tied = near[first[r] : stop[r]]
            exact = [
                lg - math.log(-math.log(1.0 - u))
                for lg, u in zip(
                    logits.reshape(-1)[tied].tolist(), uniforms.reshape(-1)[tied].tolist()
                )
            ]
            idx[r] = tied[exact.index(max(exact))] - starts[r]
    return idx.reshape(scores.shape[:-1]) if dense else idx


class _GridStep:
    """The coefficient step of one lockstep call, over every chain's rows at once.

    The chains come grouped by prior.  The groups' grids and log masses are
    concatenated once, and each row (chain-major) knows its group's span
    ``[start, stop)`` of them.  Each iteration the chains fill their
    ``(P, G)`` uniform blocks into one flat buffer (:attr:`fills` holds each
    group's view), and :meth:`draw` scores only each row's window: the grid
    points that may still win its Gumbel-max.
    """

    def __init__(self, priors: Sequence[CoefficientPrior], chains: Sequence[int], p: int) -> None:
        sizes = np.array([prior.n_values for prior in priors])
        group_of_chain = np.repeat(np.arange(len(priors)), chains)
        group_of_row = np.repeat(group_of_chain, p)
        self.grid = np.concatenate([prior.values for prior in priors])
        log_mass = [prior.log_mass() for prior in priors]
        self.log_mass = np.concatenate(log_mass)
        # Every grid is a subset of the grids' union, so a value's place in
        # its row's grid is looked up from its place in the union.
        firsts = np.cumsum(sizes) - sizes
        union = np.sort(self.grid)
        self.union = union[np.append(True, union[1:] > union[:-1])]
        self.places = np.concatenate([
            first + np.searchsorted(prior.values, np.append(self.union, np.inf))
            for first, prior in zip(firsts.tolist(), priors)
        ])
        self.place_of_row = group_of_row * (self.union.size + 1)
        self.query = np.empty((2, group_of_row.size))
        self.start = firsts[group_of_row]
        self.stop = self.start + sizes[group_of_row]
        self.span = np.stack([self.start, self.stop])
        self.top = np.array([lm.max() for lm in log_mass])[group_of_row]
        # Uniforms chain after chain, each a (P, G) block; ``shift`` takes a
        # row's grid position to its uniform's position.
        block = p * sizes[group_of_chain]
        base = np.repeat(np.cumsum(block) - block, p)
        base += np.tile(np.arange(p), len(group_of_chain)) * sizes[group_of_row]
        self.shift = base - self.start
        self.uniforms = np.empty(int(block.sum()))
        self.fills = []
        lo = 0
        for n_chains, g in zip(chains, sizes.tolist()):
            self.fills.append(self.uniforms[lo : lo + n_chains * p * g].reshape(n_chains, p, g))
            lo += n_chains * p * g
        # The window buffers, shared by the stages of every iteration.  An
        # iteration's windows can cover most of its grids (the first sweeps
        # of a call), so they pass through in runs of at most ``_RUN`` entries.
        run = min(self.uniforms.size, max(_RUN, int(sizes.max())))
        self.pos = np.empty(run, np.int64)
        self.logits, self.window, self.scores = (np.empty(run) for _ in range(3))

    def _logit(
        self, log_mass: np.ndarray, at: np.ndarray, mu: np.ndarray, hp: np.ndarray
    ) -> np.ndarray:
        """``log_mass - hp * (grid[at] - mu) ** 2`` by the logits' own operations."""
        t = np.subtract(self.grid.take(at, mode="clip"), mu)
        np.square(t, out=t)
        np.multiply(hp, t, out=t)
        return np.subtract(log_mass, t, out=t)

    def _windows(self, mu: np.ndarray, hp: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Each row's window ``[lo, hi)`` of grid positions, certified, as ``(2, R)``.

        The anchor is the row's grid position ``at``; a point can beat its
        logit ``L`` only within ``|g - mu| <= sqrt((max log mass - L + 41) / hp)``.
        The point just beyond each edge is scored with the max log mass: by
        monotone rounding that bounds every logit further out.  A row runs
        full width unless that bound plus the largest Gumbel lies below
        ``L`` plus the smallest, less ``_TAU * (1 + |.|)``; so it does when
        ``L`` is -inf or NaN (a zero-mass anchor, a non-finite ``mu`` or
        ``hp``), and ``hp = 0`` reaches the whole grid.
        """
        anchor = self._logit(self.log_mass.take(at), at, mu, hp)
        reach = np.sqrt((self.top - anchor + _REACH) / hp)
        np.subtract(mu, reach, out=self.query[0])
        np.add(mu, reach, out=self.query[1])
        window = self.places.take(self.union.searchsorted(self.query) + self.place_of_row)
        # The points just beyond the window's edges, lo - 1 and hi, if any.
        beyond = self._logit(self.top, window - _BEYOND, mu, hp)
        np.putmask(beyond, window == self.span, -np.inf)
        low = anchor + _GUMBEL_LOW
        fits = np.maximum(beyond[0], beyond[1]) + _GUMBEL_HIGH < low - _TAU * (1.0 + abs(low))
        np.copyto(window, self.span, where=~fits)
        return window

    def _draw_rows(
        self, rows: slice, lo: np.ndarray, counts: np.ndarray, mu: np.ndarray, hp: np.ndarray
    ) -> np.ndarray:
        """Gumbel-max over the windows of a run of rows that fits the buffers."""
        lo, counts, mu, hp = lo[rows], counts[rows], mu[rows], hp[rows]
        ends = counts.cumsum()
        size = int(ends[-1])
        pos, logits, window, scores = (
            buf[:size] for buf in (self.pos, self.logits, self.window, self.scores)
        )
        np.add((lo - ends + counts).repeat(counts), np.arange(size), out=pos)
        self.grid.take(pos, out=logits, mode="clip")
        np.subtract(logits, mu.repeat(counts), out=logits)
        np.square(logits, out=logits)
        np.multiply(hp.repeat(counts), logits, out=logits)
        self.log_mass.take(pos, out=scores, mode="clip")
        np.subtract(scores, logits, out=logits)
        pos += self.shift[rows].repeat(counts)
        self.uniforms.take(pos, out=window, mode="clip")
        return lo + _gumbel_argmax(logits, window, scores, counts)

    def draw(
        self, mu: np.ndarray, hp: np.ndarray, at: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's drawn grid position, anchored at ``at``, and its window's size.

        Row ``r`` draws from ``log_mass - hp[r] * (grid - mu[r]) ** 2`` over
        its group's grid by Gumbel-max with its uniforms, bit for bit.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            lo, hi = self._windows(mu, hp, at)
        counts = hi - lo
        ends = counts.cumsum()
        chosen = np.empty_like(lo)
        r = 0
        while r < ends.size:
            # The longest run of rows from ``r`` whose windows fit the buffers.
            stop = int(ends.searchsorted(ends[r] - counts[r] + self.pos.size, "right"))
            chosen[r:stop] = self._draw_rows(slice(r, stop), lo, counts, mu, hp)
            r = stop
        return chosen, counts


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
        if not np.isfinite(x).all():
            raise OptimizationError("residual data must be finite")
        oc_var = np.asarray(oc_variance_per_value, dtype=float)
        if oc_var.shape != prior.values.shape:
            raise OptimizationError(
                "oc_variance_per_value must align with the prior grid"
            )
        if not np.isfinite(oc_var).all():
            raise OptimizationError("oc_variance_per_value must be finite")
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
    call), and the grid step once over all ``C * P`` rows (:class:`_GridStep`),
    scoring only the grid points that can still win each row's Gumbel-max.
    Each chain keeps its draw order: ``normal``, the uniforms of its
    Gumbels (the doubles ``gumbel`` would read), ``gamma``.
    Initialisation, thinned scoring and polish stay per chain.

    Each result's ``seconds`` is its share of this call's wall time: the
    grid-independent time split evenly over the chains, plus its prior
    group's share of the grid step split over the group.  A group's share
    is its measured uniform fill plus the one grid step's time split by
    the group's window entries.  They sum to the call.

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
    members: dict[int, list[int]] = {}
    for c, prior in enumerate(priors):
        members.setdefault(id(prior), []).append(c)
    order = [c for group in members.values() for c in group]
    chains = [given[c] for c in order]
    sizes = [len(group) for group in members.values()]
    step = _GridStep([priors[group[0]] for group in members.values()], sizes, p)
    bounds = np.cumsum([0, *sizes])
    fills = [
        ([chain.rng for chain in chains[lo:hi]], block)
        for lo, hi, block in zip(bounds[:-1], bounds[1:], step.fills)
    ]
    fill_s = np.zeros(len(fills))
    step_s = 0.0
    entries = np.zeros(len(chains) * p, np.int64)

    starts = [chain.start(config) for chain in chains]
    x = np.stack([chain.x for chain in chains])  # (C, P, N)
    lam_idx = np.stack([s[0] for s in starts])  # (C, P)
    psi = np.stack([s[1] for s in starts])
    b0 = np.stack([s[2] for s in starts])
    chosen = step.start + lam_idx.reshape(-1)
    lam = step.grid[chosen].reshape(lam_idx.shape)
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
        t0 = time.perf_counter()
        for g, (rngs, block) in enumerate(fills):
            _fill_uniforms(rngs, block)
            t1 = time.perf_counter()
            fill_s[g] += t1 - t0
            t0 = t1
        # Gumbel-max over each row's log posterior on its grid.
        chosen, counts = step.draw(mu_rows.reshape(-1), half_prec.reshape(-1), chosen)
        lam_idx = (chosen - step.start).reshape(lam_idx.shape)
        lam = step.grid.take(chosen).reshape(lam_idx.shape)
        entries += counts
        step_s += time.perf_counter() - t0

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

    # Polish runs per chain; its time joins the shared part.  The ragged
    # step's time is split by each group's window entries.
    finished = [chain.finish(config) for chain in chains]
    group_entries = np.add.reduceat(entries, bounds[:-1] * p)
    group_s = fill_s + step_s * group_entries / group_entries.sum()
    seconds = np.full(
        len(chains), (time.perf_counter() - t_call - fill_s.sum() - step_s) / len(chains)
    )
    for lo, hi, share in zip(bounds[:-1], bounds[1:], group_s):
        seconds[lo:hi] += share / (hi - lo)
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
