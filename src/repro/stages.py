"""Stage implementations behind ``repro-flow``.

One function per flow stage, operating on a
:class:`~repro.workspace.Workspace`: each derives its inputs from the
workspace identity (device serial, settings, seed) and archives its
outputs there, so the stages can run in separate sessions and the
archived bytes never depend on the worker count or cache temperature.
Every workspace write is atomic, so an interrupted stage leaves only
valid artefacts on disk.

The CLI's printing stays out of this module: the characterisation
stage, the only long-running one, reports its milestones through an
optional ``progress`` callback that receives plain-dict events
(``{"stage", "event", ...}``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .characterization.harness import CharacterizationConfig, characterize_multiplier
from .circuits.domains import Domain
from .config import ResilienceSettings, TableISettings
from .core.design import LinearProjectionDesign
from .core.optimizer import OptimizationResult
from .datasets import low_rank_gaussian
from .framework import default_frequency_grid
from .models.area_model import AreaModel, collect_area_samples, fit_area_model
from .parallel.jobs import resolve_jobs
from .workspace import Workspace

__all__ = [
    "ProgressFn",
    "characterization_config",
    "characterize_workspace",
    "evaluate_workspace",
    "fit_area_workspace",
    "optimize_workspace",
    "training_data",
]

#: Stage progress callback: receives one plain-dict event per milestone.
ProgressFn = Callable[[dict], None]


def _emit(progress: ProgressFn | None, event: dict) -> None:
    if progress is not None:
        progress(event)


def characterization_config(settings: TableISettings) -> CharacterizationConfig:
    """The sweep configuration the flow derives from workspace settings.

    The frequency grid brackets the target clock, the sample count is
    Table I's (scaled), and two placement anchors are characterised per
    word-length.
    """
    return CharacterizationConfig(
        freqs_mhz=default_frequency_grid(settings.clock_frequency_mhz),
        n_samples=settings.n_characterization,
        n_locations=2,
    )


def characterize_workspace(
    ws: Workspace,
    jobs: int | None = None,
    resilience: ResilienceSettings | None = None,
    progress: ProgressFn | None = None,
) -> list[Path]:
    """Characterise every configured word-length and archive the sweeps.

    Deterministic in the workspace identity (device serial, settings,
    seed): the ``jobs`` worker count and the temperature of the
    workspace's disk-backed placed-design cache never change the
    archived bytes.  Returns the archive paths in sweep order.
    """
    device = ws.device()
    settings = ws.settings()
    n_jobs = resolve_jobs(jobs)
    placed = ws.placed_cache()
    cfg = characterization_config(settings)
    paths: list[Path] = []
    for wl in settings.coeff_wordlengths:
        _emit(progress, {
            "stage": "characterize",
            "event": "wordlength.start",
            "w_data": settings.input_wordlength,
            "wl": wl,
        })
        result = characterize_multiplier(
            device,
            settings.input_wordlength,
            wl,
            cfg,
            seed=ws.seed(),
            jobs=n_jobs,
            cache=placed,
            resilience=resilience,
        )
        path = ws.save_characterization(wl, result)
        paths.append(path)
        status = result.outcome.status if result.outcome is not None else "complete"
        quarantined = (
            [list(shard) for shard in result.outcome.quarantined]
            if result.outcome is not None
            else []
        )
        _emit(progress, {
            "stage": "characterize",
            "event": "wordlength.done",
            "wl": wl,
            "path": str(path),
            "status": status,
            "quarantined": quarantined,
        })
    return paths


def fit_area_workspace(ws: Workspace, n_runs: int = 6) -> tuple[AreaModel, Path]:
    """Fit and archive the LE-cost model from synthesis samples."""
    settings = ws.settings()
    samples = collect_area_samples(
        ws.device(),
        settings.coeff_wordlengths,
        w_data=settings.input_wordlength,
        n_runs=n_runs,
        seed=ws.seed(),
    )
    degree = max(1, min(2, len(set(settings.coeff_wordlengths)) - 1))
    model = fit_area_model(samples, degree=degree)
    path = ws.save_area_model(model)
    return model, path


def training_data(ws: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic (train, test) split derived from the workspace seed."""
    settings = ws.settings()
    x = low_rank_gaussian(
        settings.p,
        settings.k,
        settings.n_train + settings.n_test,
        np.random.default_rng(ws.seed()),
        noise=0.02,
    )
    return x[:, : settings.n_train], x[:, settings.n_train :]


def optimize_workspace(
    ws: Workspace,
    name: str,
    beta: float,
    jobs: int | None = None,
) -> tuple[OptimizationResult, Path]:
    """Run Algorithm 1 on the workspace's training data; archive the designs."""
    fw = ws.framework(jobs=resolve_jobs(jobs))
    x_train, _ = training_data(ws)
    result = fw.optimize(x_train, beta=beta)
    path = ws.save_design_set(name, result.designs)
    return result, path


def evaluate_workspace(
    ws: Workspace,
    name: str,
    domain: Domain,
    jobs: int | None = None,
) -> list[dict]:
    """Evaluate a stored design set in one domain.

    Returns one row dict per design, sorted by area, for the CLI to
    render as a table.
    """
    fw = ws.framework(jobs=resolve_jobs(jobs))
    _, x_test = training_data(ws)
    designs: Sequence[LinearProjectionDesign] = ws.load_design_set(name)
    rows: list[dict] = []
    for d in sorted(designs, key=lambda d: d.area_le or 0):
        ev = fw.evaluate(d, x_test, domain)
        rows.append({
            "wordlengths": list(d.wordlengths),
            "area_le": float(ev.area_le),
            "mse": float(ev.mse),
            "domain": domain.value,
        })
    return rows
