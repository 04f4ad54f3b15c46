"""The Optimisation Framework (OF) — the paper's Fig. 2 design flow, end to end.

``OptimizationFramework`` wires the whole pipeline together for a single
device:

1. :meth:`characterize` — run the multiplier characterisation for every
   coefficient word-length in the sweep and distil the error models;
2. :meth:`fit_area_model` — synthesise MAC blocks across word-lengths and
   locations and fit the LE-cost model;
3. :meth:`optimize` — run Algorithm 1 for a given beta on training data;
4. :meth:`klt_baselines` — the existing-methodology designs (KLT then
   quantise) for comparison;
5. :meth:`evaluate` — measure designs on test data in any of the three
   domains.

Everything is deterministic in ``(device.serial, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .characterization.harness import CharacterizationConfig, characterize_multiplier
from .circuits.domains import Domain
from .circuits.executor import DomainEvaluation, evaluate_design, evaluate_domains
from .config import ResilienceSettings, TableISettings
from .core.design import DesignPoint, LinearProjectionDesign
from .core.klt import klt_reference_design
from .core.optimizer import OptimizationResult, OptimizerConfig, optimize_designs
from .datasets import low_rank_gaussian
from .errors import OptimizationError
from .fabric.device import FPGADevice
from .models.area_model import AreaModel, collect_area_samples, fit_area_model
from .models.error_model import ErrorModel, ErrorModelSet, build_error_model
from .parallel.cache import PlacedDesignCache
from .parallel.jobs import resolve_jobs

__all__ = [
    "OptimizationFramework",
    "area_model_degree",
    "characterization_config",
    "default_frequency_grid",
    "train_test_split",
]


def default_frequency_grid(target_mhz: float) -> tuple[float, ...]:
    """A characterisation frequency grid bracketing a target clock.

    Covers from well below the error onset to well above the target so the
    error model can answer queries across the whole over-clocking regime.
    """
    lo = max(40.0, target_mhz * 0.7)
    hi = target_mhz * 1.35
    step = max(10.0, (hi - lo) / 8)
    grid = [lo]
    while grid[-1] + step < hi:
        grid.append(grid[-1] + step)
    grid.append(hi)
    if not any(abs(g - target_mhz) < 1e-6 for g in grid):
        grid.append(target_mhz)
    return tuple(sorted(grid))


def characterization_config(
    settings: TableISettings, n_locations: int = 2
) -> CharacterizationConfig:
    """The sweep configuration the flow derives from case-study settings.

    The frequency grid brackets the target clock, the sample count is
    Table I's (scaled), every multiplicand is enumerated (the paper's
    procedure) and ``n_locations`` placement anchors are characterised
    per word-length.
    """
    return CharacterizationConfig(
        freqs_mhz=default_frequency_grid(settings.clock_frequency_mhz),
        n_samples=settings.n_characterization,
        n_locations=n_locations,
    )


def train_test_split(
    settings: TableISettings, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The flow's (train, test) data, derived from ``seed`` alone.

    One draw of ``n_train + n_test`` columns from a rank-``k`` Gaussian in
    ``p`` dimensions (noise 0.02); the first ``n_train`` columns train
    Algorithm 1 and the rest are the test set.
    """
    x = low_rank_gaussian(
        settings.p,
        settings.k,
        settings.n_train + settings.n_test,
        np.random.default_rng(seed),
        noise=0.02,
    )
    return x[:, : settings.n_train], x[:, settings.n_train :]


def area_model_degree(wordlengths: Sequence[int]) -> int:
    """Degree of the area-model polynomial fitted over ``wordlengths``.

    Quadratic by default; a narrow word-length sweep (fewer than three
    distinct values) cannot support it and gets a lower degree.
    """
    return max(1, min(2, len(set(wordlengths)) - 1))


@dataclass
class OptimizationFramework:
    """End-to-end per-device optimisation flow (paper Fig. 2).

    Parameters
    ----------
    device:
        The target die.
    settings:
        Case-study settings; defaults to the paper's Table I.
    char_config:
        Characterisation sweep settings; ``None`` derives a default from
        ``settings`` (full multiplicand enumeration, Table I sample count,
        a frequency grid bracketing the target clock).
    seed:
        Root seed of the whole flow.
    jobs:
        Worker processes for the characterisation sweeps (``None``
        consults ``REPRO_JOBS``; 1 = serial).  Results are identical at
        any worker count.
    cache:
        Placed-design cache shared by characterisation and actual-domain
        evaluation; ``None`` uses the process-wide default.
    resilience:
        Retry/degradation policy for the characterisation sweeps.  After
        :meth:`characterize`, :meth:`sweep_health` reports each
        word-length's sweep status so callers can tell complete from
        degraded data.
    """

    device: FPGADevice
    settings: TableISettings = field(default_factory=TableISettings)
    char_config: CharacterizationConfig | None = None
    seed: int = 0
    jobs: int | None = None
    cache: PlacedDesignCache | None = None
    resilience: ResilienceSettings = ResilienceSettings()
    _error_models: ErrorModelSet | None = field(default=None, repr=False)
    _area_model: AreaModel | None = field(default=None, repr=False)
    _sweep_outcomes: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    def _characterization_config(self) -> CharacterizationConfig:
        if self.char_config is not None:
            return self.char_config
        return characterization_config(self.settings)

    def characterize(self, verbose: bool = False) -> ErrorModelSet:
        """Characterise every word-length's multiplier geometry (cached).

        The word-lengths are swept one after another; with ``jobs > 1``
        each sweep fans its shards out over the sweep engine's process
        pool.  The numbers are identical at any worker count.
        """
        if self._error_models is not None:
            return self._error_models
        cfg = self._characterization_config()
        wordlengths = list(self.settings.coeff_wordlengths)
        n_jobs = resolve_jobs(self.jobs)
        w_data = self.settings.input_wordlength
        results = []
        for wl in wordlengths:
            if verbose:
                print(f"[characterize] {w_data}x{wl} ...")
            results.append(
                characterize_multiplier(
                    self.device,
                    w_data,
                    wl,
                    cfg,
                    seed=self.seed,
                    jobs=n_jobs,
                    cache=self.cache,
                    resilience=self.resilience,
                )
            )
        self._sweep_outcomes = {
            wl: result.outcome for wl, result in zip(wordlengths, results)
        }
        models: dict[int, ErrorModel] = {
            wl: build_error_model(result)
            for wl, result in zip(wordlengths, results)
        }
        self._error_models = ErrorModelSet(models)
        return self._error_models

    def sweep_health(self) -> dict[int, str]:
        """Per-word-length sweep status after :meth:`characterize`.

        ``{wl: 'complete' | 'degraded'}`` — failed sweeps never get here
        (they raise).  Word-lengths rehydrated from a workspace (no live
        outcome) report ``'complete'``: their archives were gated on the
        same policy when produced.
        """
        return {
            wl: (outcome.status if outcome is not None else "complete")
            for wl, outcome in self._sweep_outcomes.items()
        }

    def fit_area_model(self, n_runs: int = 6) -> AreaModel:
        """Fit the LE-cost model from synthesis runs (cached)."""
        if self._area_model is not None:
            return self._area_model
        samples = collect_area_samples(
            self.device,
            self.settings.coeff_wordlengths,
            w_data=self.settings.input_wordlength,
            n_runs=n_runs,
            seed=self.seed,
        )
        self._area_model = fit_area_model(
            samples, degree=area_model_degree(self.settings.coeff_wordlengths)
        )
        return self._area_model

    # ------------------------------------------------------------------
    def optimize(self, x_train: np.ndarray, beta: float | None = None) -> OptimizationResult:
        """Run Algorithm 1 on training data (characterises/fits if needed)."""
        betas = self.settings.betas
        b = beta if beta is not None else betas[0]
        config = OptimizerConfig(
            settings=self.settings,
            error_models=self.characterize(),
            area_model=self.fit_area_model(),
            beta=b,
        )
        return optimize_designs(x_train, config, seed=self.seed)

    def optimize_all_betas(self, x_train: np.ndarray) -> list[OptimizationResult]:
        """One Algorithm-1 run per configured beta (Table I: {4, 8})."""
        return [self.optimize(x_train, beta=b) for b in self.settings.betas]

    def klt_baselines(self, x_train: np.ndarray) -> list[LinearProjectionDesign]:
        """The existing-methodology designs: KLT quantised at each wl."""
        area = self.fit_area_model()
        designs = []
        for wl in self.settings.coeff_wordlengths:
            d = klt_reference_design(
                x_train,
                self.settings.k,
                wl,
                self.settings.input_wordlength,
                self.settings.clock_frequency_mhz,
                area_le=area.design_area(wl, self.settings.k),
            )
            designs.append(d)
        return designs

    # ------------------------------------------------------------------
    def evaluate(
        self,
        design: LinearProjectionDesign,
        x_test: np.ndarray,
        domain: Domain,
        anchor: tuple[int, int] = (0, 0),
    ) -> DomainEvaluation:
        """Evaluate one design in one domain on this framework's device."""
        return evaluate_design(
            design,
            x_test,
            domain,
            error_models=self.characterize(),
            device=self.device,
            anchor=anchor,
            seed=self.seed,
            cache=self.cache,
        )

    def evaluate_all_domains(
        self,
        design: LinearProjectionDesign,
        x_test: np.ndarray,
        anchor: tuple[int, int] = (0, 0),
    ) -> dict[Domain, DomainEvaluation]:
        """Predicted / simulated / actual evaluations (paper Fig. 10)."""
        return evaluate_domains(
            design,
            x_test,
            self.characterize(),
            self.device,
            anchor=anchor,
            seed=self.seed,
            cache=self.cache,
        )

    def design_points(
        self,
        designs: list[LinearProjectionDesign],
        x_test: np.ndarray,
        domain: Domain,
    ) -> list[DesignPoint]:
        """Evaluate many designs into plottable (area, MSE) points."""
        if not designs:
            raise OptimizationError("no designs to evaluate")
        points = []
        for d in designs:
            ev = self.evaluate(d, x_test, domain)
            points.append(
                DesignPoint(
                    design=d,
                    domain=domain.value,
                    mse=ev.mse,
                    area_le=ev.area_le,
                    freq_mhz=ev.freq_mhz,
                    extra=ev.extra,
                )
            )
        return points
