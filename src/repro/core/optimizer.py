"""Algorithm 1: the linear-projection design optimisation framework.

Per output dimension ``d = 1..K`` and per word-length ``wl`` in the
configured sweep, a candidate projection vector is Gibbs-sampled from the
posterior shaped by the over-clocking prior; each candidate is scored with
its area-model estimate and its objective value; the (area, T) Pareto
front is extracted; Q bins over the objective span each surrender one
survivor; and the Q survivors seed the exploration of the next dimension.

All candidates of one dimension are drawn by one lockstep Gibbs call
(:func:`~repro.core.bayesian.sample_projection_vectors`).  The run records
each draw's share of that call's wall-clock cost per word-length, which
is the quantity the paper's run-time model (eqs. 7-8) predicts — the
runtime bench refits the model on these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import TableISettings
from ..errors import OptimizationError
from ..models.area_model import AreaModel
from ..models.error_model import ErrorModelSet
from ..models.prior import CoefficientPrior
from ..rng import SeedTree
from .bayesian import GibbsConfig, sample_projection_vectors
from .design import LinearProjectionDesign
from .objective import reconstruction_mse
from .pareto import pareto_front, select_q_bins

__all__ = ["OptimizerConfig", "OptimizationResult", "optimize_designs"]


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything Algorithm 1 needs besides the data.

    Attributes
    ----------
    settings:
        Case-study parameters (K, Q, freq, word-length sweep, Gibbs
        sample counts).
    error_models:
        Characterised E(m, f) per word-length.
    area_model:
        Fitted LE-vs-wordlength model.
    beta:
        Prior hyper-parameter for this run (Table I explores {4, 8}).
    """

    settings: TableISettings
    error_models: ErrorModelSet
    area_model: AreaModel
    beta: float = 4.0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise OptimizationError("beta must be > 0 (Alg. 1 'Require' clause)")
        missing = [
            wl
            for wl in self.settings.coeff_wordlengths
            if wl not in self.error_models.wordlengths
        ]
        if missing:
            raise OptimizationError(
                f"no error model for word-length(s) {missing}; "
                f"characterise them first"
            )

    def gibbs_config(self) -> GibbsConfig:
        return GibbsConfig(
            burn_in=self.settings.burn_in, n_samples=self.settings.n_samples
        )


@dataclass(frozen=True)
class _Partial:
    """A partial design: columns chosen for dimensions 1..d."""

    columns: tuple[dict, ...]  # each: values/magnitudes/signs/wordlength
    area: float
    mse: float
    oc_term: float

    @property
    def objective(self) -> float:
        return self.mse + self.oc_term

    def lambda_matrix(self, p: int) -> np.ndarray:
        if not self.columns:
            return np.zeros((p, 0))
        return np.stack([c["values"] for c in self.columns], axis=1)


@dataclass
class OptimizationResult:
    """Q final designs plus the exploration record."""

    designs: list[LinearProjectionDesign]
    beta: float
    freq_mhz: float
    #: (dimension, wordlength, seconds) per drawn projection vector — feeds
    #: the run-time model bench (paper Sec. VI-E).  A dimension's draws share
    #: one lockstep call: each record is an even split of its
    #: grid-independent time plus an even split of its word-length group's
    #: share of the grid step, which is the group's measured uniform fill
    #: plus the one windowed step's time split by the group's window
    #: entries.  So the records keep eq. (8)'s growth in wl and sum to the
    #: calls' wall time.
    sampling_times: list[tuple[int, int, float]] = field(default_factory=list)
    #: candidate (area, objective) per dimension, for inspection.
    candidate_history: list[list[tuple[float, float]]] = field(default_factory=list)

    @property
    def total_sampling_seconds(self) -> float:
        return sum(t for _, _, t in self.sampling_times)

    def best_design(self) -> LinearProjectionDesign:
        """The design with the lowest recorded objective."""
        if not self.designs:
            raise OptimizationError("optimisation produced no designs")
        return min(self.designs, key=lambda d: d.metadata.get("objective_t", np.inf))


def _residual(x: np.ndarray, partial: _Partial) -> np.ndarray:
    """Data left unexplained by a partial design's columns (LS deflation)."""
    lam = partial.lambda_matrix(x.shape[0])
    if lam.shape[1] == 0:
        return x
    gram = lam.T @ lam + 1e-12 * np.eye(lam.shape[1])
    f = np.linalg.solve(gram, lam.T @ x)
    return x - lam @ f


def optimize_designs(
    x_train: np.ndarray,
    config: OptimizerConfig,
    seed: int = 0,
) -> OptimizationResult:
    """Run Algorithm 1 and return Q Pareto designs.

    Parameters
    ----------
    x_train:
        Training data, shape ``(P, N)``, scaled to [-1, 1] (the datasets
        module produces this form).
    config:
        Optimiser configuration.
    seed:
        Root seed; the run is fully deterministic given
        ``(x_train, config, seed)``.
    """
    x = np.asarray(x_train, dtype=float)
    s = config.settings
    if x.ndim != 2 or x.shape[0] != s.p:
        raise OptimizationError(
            f"training data must be ({s.p}, N), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise OptimizationError("training data must be finite")
    if np.abs(x).max() > 1.0 + 1e-9:
        raise OptimizationError(
            "training data must be scaled to [-1, 1] (see repro.datasets)"
        )
    freq = s.clock_frequency_mhz
    tree = SeedTree(seed).child("optimizer", f"beta={config.beta}")
    gibbs = config.gibbs_config()

    # Per-wordlength prior and scoring tables (shared across dimensions).
    priors: dict[int, CoefficientPrior] = {}
    oc_tables: dict[int, np.ndarray] = {}
    col_areas: dict[int, float] = {}
    for wl in s.coeff_wordlengths:
        model = config.error_models.model(wl)
        prior = CoefficientPrior.from_error_model(model, freq, config.beta)
        priors[wl] = prior
        scale = 2.0 ** (-2 * (s.input_wordlength + wl))
        oc_tables[wl] = prior.variances * scale
        col_areas[wl] = float(config.area_model.predict(wl))

    survivors: list[_Partial] = [
        _Partial(columns=(), area=0.0, mse=float((x**2).mean()), oc_term=0.0)
    ]
    result = OptimizationResult(designs=[], beta=config.beta, freq_mhz=freq)

    for d in range(1, s.k + 1):
        # One chain per (survivor, word-length), in that order: the
        # Pareto front and the Q bins depend on the candidate order.
        chains = [
            (qi, partial, wl)
            for qi, partial in enumerate(survivors)
            for wl in s.coeff_wordlengths
        ]
        resids = [_residual(x, partial) for partial in survivors]
        samples = sample_projection_vectors(
            [resids[qi] for qi, _, _ in chains],
            [priors[wl] for _, _, wl in chains],
            [oc_tables[wl] for _, _, wl in chains],
            [tree.rng("gibbs", f"d{d}", f"q{qi}", f"wl{wl}")
             for qi, _, wl in chains],
            gibbs,
        )
        candidates: list[_Partial] = []
        for (_, partial, wl), samp in zip(chains, samples):
            result.sampling_times.append((d, wl, samp.seconds))
            column = {
                "values": samp.values,
                "magnitudes": samp.magnitudes,
                "signs": samp.signs,
                "wordlength": wl,
            }
            columns = partial.columns + (column,)
            lam = np.stack([c["values"] for c in columns], axis=1)
            mse = reconstruction_mse(lam, x)
            oc = partial.oc_term + samp.oc_penalty
            area = partial.area + col_areas[wl]
            candidates.append(
                _Partial(columns=columns, area=area, mse=mse, oc_term=oc)
            )
        front = pareto_front(
            candidates, area_of=lambda c: c.area, mse_of=lambda c: c.objective
        )
        survivors = select_q_bins(front, s.q, mse_of=lambda c: c.objective)
        if not survivors:
            raise OptimizationError(f"dimension {d}: no surviving candidates")
        # Alg. 1: "Create Q candidate projections from the Q extracted" —
        # when the front yields fewer than Q, cycle the survivors so every
        # dimension explores exactly Q branches (the eq.-7 cost structure);
        # duplicated branches diverge through their distinct Gibbs seeds.
        base = list(survivors)
        i = 0
        while len(survivors) < s.q:
            survivors.append(base[i % len(base)])
            i += 1
        result.candidate_history.append(
            [(c.area, c.objective) for c in candidates]
        )

    for partial in survivors:
        values = partial.lambda_matrix(s.p)
        mags = np.stack([c["magnitudes"] for c in partial.columns], axis=1)
        signs = np.stack([c["signs"] for c in partial.columns], axis=1)
        wls = tuple(int(c["wordlength"]) for c in partial.columns)
        design = LinearProjectionDesign(
            values=values,
            magnitudes=mags,
            signs=signs,
            wordlengths=wls,
            w_data=s.input_wordlength,
            freq_mhz=freq,
            area_le=partial.area,
            method="of",
            metadata={
                "beta": config.beta,
                "train_mse": partial.mse,
                "overclocking_term": partial.oc_term,
                "objective_t": partial.objective,
            },
        )
        result.designs.append(design)
    return result
