"""The four workloads of the pipeline benchmark.

A workload runs in a rep process in four steps:

* ``prepare`` (optional) builds inputs shared by every rep of a run, once,
  in a process of its own, and pickles them to the run's inputs file;
* ``setup`` builds or loads the rep's inputs and returns the timed call —
  this and the imports are the rep's set-up time;
* the timed call is the rep's timed region;
* ``check``, ``canonical`` and ``quality`` look at the output afterwards.

Every workload is deterministic in its seed, so every rep of a run and the
traced rep must produce byte-identical output (compared by sha256 digest).
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.characterization.harness import CharacterizationConfig, characterize_multiplier
from repro.circuits.domains import Domain
from repro.circuits.executor import evaluate_domains
from repro.config import TableISettings
from repro.core.optimizer import OptimizerConfig, optimize_designs
from repro.datasets import low_rank_gaussian
from repro.eval.context import ExperimentContext
from repro.eval.figures import headline
from repro.fabric.device import make_device
from repro.framework import default_frequency_grid
from repro.models.area_model import collect_area_samples
from repro.parallel.cache import PlacedDesignCache

__all__ = ["WORKLOADS", "Workload", "digest"]


@dataclass(frozen=True)
class Workload:
    """One workload's steps (see the module docstring)."""

    setup: Callable[[int, dict, Path], Callable[[], Any]]
    check: Callable[[Any, dict], list[str]]
    canonical: Callable[[Any], Any]
    quality: Callable[[Any], dict[str, float]] = lambda out: {}
    prepare: Callable[[int, dict, Path], None] | None = None


# ----------------------------------------------------------------------
def _feed(h: Any, obj: Any) -> None:
    """Hash ``obj`` canonically: exact float bits, dtype/shape-tagged arrays."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + str(int(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"s" + str(len(obj)).encode() + b":" + obj.encode())
    elif obj is None:
        h.update(b"n")
    elif isinstance(obj, dict):
        h.update(b"d" + str(len(obj)).encode())
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"l" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj: Any) -> str:
    """sha256 of a canonical encoding of ``obj``."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _dump(path: Path, obj: Any) -> None:
    with path.open("wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _load(path: Path) -> Any:
    # Only files written by this run's prepare process are unpickled.
    with path.open("rb") as fh:
        return pickle.load(fh)


def _design_record(design) -> dict:
    return {
        "values": design.values,
        "magnitudes": design.magnitudes,
        "signs": design.signs,
        "wordlengths": list(design.wordlengths),
        "area_le": design.area_le,
        "method": design.method,
        "metadata": dict(design.metadata),
    }


def _shared_context(seed: int, size: dict) -> ExperimentContext:
    ctx = ExperimentContext.get(seed=seed, scale=size["model_scale"], n_char_locations=2)
    ctx.framework.jobs = 1
    return ctx


# ---------------------------------------------------------------- headline
def _headline_setup(seed: int, size: dict, inputs: Path) -> Callable[[], dict]:
    ctx = ExperimentContext.get(
        seed=seed, scale=size["scale"], n_char_locations=size["n_char_locations"]
    )
    ctx.framework.jobs = 1
    return lambda: headline(ctx, beta=size["beta"])


def _headline_check(out: dict, size: dict) -> list[str]:
    safe, klt_fast, of_fast = out["rows"]
    problems = []
    if not all(math.isfinite(r["mse"]) and r["mse"] > 0 for r in out["rows"]):
        problems.append("an operating point has a non-finite or non-positive MSE")
    if safe["worst_lane_error_rate"] != 0.0:
        problems.append("KLT-9 at its tool Fmax is not error-free")
    if not out["throughput_gain"] > 1.0:
        problems.append(f"throughput gain {out['throughput_gain']} is not above 1")
    if not of_fast["mse"] < klt_fast["mse"]:
        problems.append("the OF design errs more than KLT-9 at the target clock")
    return problems


def _headline_quality(out: dict) -> dict[str, float]:
    return {
        "throughput_gain": out["throughput_gain"],
        "of_vs_klt_mse_ratio": out["of_vs_klt_at_target_mse_ratio"],
    }


# --------------------------------------------------------------- char_wide
def _char_setup(seed: int, size: dict, inputs: Path) -> Callable[[], Any]:
    device = make_device(seed)
    config = CharacterizationConfig(
        freqs_mhz=default_frequency_grid(TableISettings().clock_frequency_mhz),
        n_samples=size["n_samples"],
        multiplicands=tuple(range(size["n_multiplicands"])),
        n_locations=size["n_locations"],
    )
    w_data = TableISettings().input_wordlength
    return lambda: characterize_multiplier(
        device, w_data, size["w_coeff"], config, seed=seed, jobs=1, cache=PlacedDesignCache()
    )


def _char_check(result, size: dict) -> list[str]:
    problems = []
    if result.outcome is None or result.outcome.status != "complete":
        problems.append("the sweep did not complete")
    grids = (result.variance, result.mean, result.error_rate)
    if not all(np.isfinite(g).all() for g in grids):
        return problems + ["non-finite error statistics"]
    if result.error_rate.min() < 0 or result.error_rate.max() > 1:
        problems.append("error rate outside [0, 1]")
    if result.variance.min() < 0:
        problems.append("negative error variance")
    # A zero multiplicand keeps the product bus constant: it never errs.
    if result.multiplicands[0] == 0 and result.error_rate[:, 0, :].any():
        problems.append("multiplicand 0 produced errors")
    if not result.error_rate[:, :, -1].any():
        problems.append("no errors at the highest clock")
    return problems


def _char_canonical(result) -> dict:
    return {
        "freqs_mhz": result.freqs_mhz,
        "multiplicands": result.multiplicands,
        "locations": [list(loc) for loc in result.locations],
        "variance": result.variance,
        "mean": result.mean,
        "error_rate": result.error_rate,
    }


# -------------------------------------------------------------- gibbs_deep
def _gibbs_prepare(seed: int, size: dict, inputs: Path) -> None:
    ctx = _shared_context(seed, size)
    _dump(
        inputs,
        {
            "error_models": ctx.framework.characterize(),
            "area_model": ctx.framework.fit_area_model(),
            "x_train": ctx.x_train,
        },
    )


def _gibbs_setup(seed: int, size: dict, inputs: Path) -> Callable[[], list]:
    shared = _load(inputs)
    settings = TableISettings().scaled(size["scale"])
    configs = [
        OptimizerConfig(
            settings=settings,
            error_models=shared["error_models"],
            area_model=shared["area_model"],
            beta=beta,
        )
        for beta in size["betas"]
    ]
    x_train = shared["x_train"]
    return lambda: [optimize_designs(x_train, config, seed=seed) for config in configs]


def _gibbs_check(results: list, size: dict) -> list[str]:
    settings = TableISettings().scaled(size["scale"])
    problems = []
    for result in results:
        if len(result.designs) != settings.q:
            problems.append(f"beta={result.beta}: {len(result.designs)} designs, not Q")
        for design in result.designs:
            objective = design.metadata["objective_t"]
            if design.k != settings.k or not (math.isfinite(objective) and objective > 0):
                problems.append(f"beta={result.beta}: malformed design {design.describe()}")
    return problems


def _gibbs_canonical(results: list) -> list:
    # sampling_times are wall-clock records, so they stay out of the digest.
    return [
        {
            "beta": r.beta,
            "designs": [_design_record(d) for d in r.designs],
            "candidate_history": r.candidate_history,
        }
        for r in results
    ]


def _gibbs_quality(results: list) -> dict[str, float]:
    best = [min(d.metadata["objective_t"] for d in r.designs) for r in results]
    return {"best_objective": float(np.exp(np.mean(np.log(best))))}


# --------------------------------------------------------------- area_eval
def _area_prepare(seed: int, size: dict, inputs: Path) -> None:
    ctx = _shared_context(seed, size)
    s = ctx.settings
    x_all = low_rank_gaussian(
        s.p, s.k, s.n_train + size["n_test"], np.random.default_rng(seed), noise=0.02
    )
    x_train, x_test = x_all[:, : s.n_train], x_all[:, s.n_train :]
    klt = ctx.framework.klt_baselines(x_train)
    of = ctx.framework.optimize(x_train, beta=size["beta"]).designs
    _dump(
        inputs,
        {
            "error_models": ctx.framework.characterize(),
            "designs": klt[-size["n_klt"] :] + of[: size["n_of"]],
            "x_test": x_test,
            "wordlengths": s.coeff_wordlengths,
            "w_data": s.input_wordlength,
        },
    )


def _area_setup(seed: int, size: dict, inputs: Path) -> Callable[[], tuple]:
    device = make_device(seed)
    shared = _load(inputs)

    def run() -> tuple:
        samples = collect_area_samples(
            device, shared["wordlengths"], w_data=shared["w_data"],
            n_runs=size["area_runs"], seed=seed,
        )
        cache = PlacedDesignCache()
        evaluations = [
            evaluate_domains(
                design, shared["x_test"], shared["error_models"], device,
                seed=seed, cache=cache,
            )
            for design in shared["designs"]
        ]
        return samples, evaluations

    return run


def _area_check(out: tuple, size: dict) -> list[str]:
    samples, evaluations = out
    problems = []
    if not all(s.logic_elements > 0 for s in samples):
        problems.append("a MAC synthesis reported no logic elements")
    wls = sorted({s.wordlength for s in samples})
    mean_le = {
        wl: np.mean([s.logic_elements for s in samples if s.wordlength == wl]) for wl in wls
    }
    if not mean_le[wls[-1]] > mean_le[wls[0]]:
        problems.append("MAC area does not grow with the word-length")
    for evs in evaluations:
        if not evs[Domain.ACTUAL].area_le > 0:
            problems.append("a placed datapath has no area")
        if not all(math.isfinite(ev.mse) and ev.mse >= 0 for ev in evs.values()):
            problems.append("a domain evaluation has a non-finite or negative MSE")
    return problems


def _area_canonical(out: tuple) -> dict:
    samples, evaluations = out
    return {
        "samples": [
            [s.wordlength, s.logic_elements, s.seed, list(s.location)] for s in samples
        ],
        "evaluations": [
            {
                domain.value: [ev.mse, ev.area_le, ev.freq_mhz, ev.extra]
                for domain, ev in evs.items()
            }
            for evs in evaluations
        ],
    }


WORKLOADS: dict[str, Workload] = {
    "headline": Workload(
        setup=_headline_setup,
        check=_headline_check,
        canonical=lambda out: out,
        quality=_headline_quality,
    ),
    "char_wide": Workload(setup=_char_setup, check=_char_check, canonical=_char_canonical),
    "gibbs_deep": Workload(
        setup=_gibbs_setup,
        check=_gibbs_check,
        canonical=_gibbs_canonical,
        quality=_gibbs_quality,
        prepare=_gibbs_prepare,
    ),
    "area_eval": Workload(
        setup=_area_setup, check=_area_check, canonical=_area_canonical, prepare=_area_prepare
    ),
}
