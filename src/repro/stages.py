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

Each stage reads only what earlier stages archived: ``optimize`` and
``evaluate`` refuse a workspace that lacks their inputs rather than
recompute them in memory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

from .characterization.harness import characterize_multiplier
from .circuits.domains import Domain
from .config import ResilienceSettings
from .core.design import LinearProjectionDesign
from .core.optimizer import OptimizationResult
from .errors import ConfigError
from .framework import area_model_degree, characterization_config, train_test_split
from .models.area_model import AreaModel, collect_area_samples, fit_area_model
from .parallel.jobs import resolve_jobs
from .workspace import Workspace

__all__ = [
    "ProgressFn",
    "characterize_workspace",
    "evaluate_workspace",
    "fit_area_workspace",
    "optimize_workspace",
]

#: Stage progress callback: receives one plain-dict event per milestone.
ProgressFn = Callable[[dict], None]


def _emit(progress: ProgressFn | None, event: dict) -> None:
    if progress is not None:
        progress(event)


def characterize_workspace(
    ws: Workspace,
    jobs: int | None = None,
    resilience: ResilienceSettings = ResilienceSettings(),
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
    model = fit_area_model(samples, degree=area_model_degree(settings.coeff_wordlengths))
    path = ws.save_area_model(model)
    return model, path


def _require_archives(ws: Workspace, stage: str, area_model: bool) -> None:
    """Raise :class:`ConfigError` unless ``stage``'s inputs are archived.

    The error names the stage to run first and any word-lengths whose
    characterisation archive is missing.
    """
    missing = sorted(
        set(ws.settings().coeff_wordlengths) - set(ws.characterized_wordlengths())
    )
    if missing:
        raise ConfigError(
            f"{stage} needs the characterisation archives of word-lengths "
            f"{missing}; run `repro-flow characterize` first"
        )
    if area_model and not ws.area_model_path.exists():
        raise ConfigError(
            f"{stage} needs the area model; run `repro-flow fit-area` first"
        )


def optimize_workspace(
    ws: Workspace, name: str, beta: float
) -> tuple[OptimizationResult, Path]:
    """Run Algorithm 1 on the workspace's training data; archive the designs."""
    _require_archives(ws, "optimize", area_model=True)
    x_train, _ = train_test_split(ws.settings(), ws.seed())
    result = ws.framework().optimize(x_train, beta=beta)
    path = ws.save_design_set(name, result.designs)
    return result, path


def evaluate_workspace(ws: Workspace, name: str, domain: Domain) -> list[dict]:
    """Evaluate a stored design set in one domain.

    Returns one row dict per design, sorted by area, for the CLI to
    render as a table.
    """
    _require_archives(ws, "evaluate", area_model=False)
    fw = ws.framework()
    _, x_test = train_test_split(ws.settings(), ws.seed())
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
