"""Fixed settings of the pipeline benchmark.

Everything that decides what a run measures lives here — workload sizes,
the rep protocol and the rep-process environment — so the parent commit
and a change always run identical settings.  Standard library only: the
runner imports this without loading numpy or ``repro``.
"""

from __future__ import annotations

#: Workload names, in the order ``run`` executes them.
WORKLOADS = ("headline", "char_wide", "gibbs_deep", "area_eval")

DEFAULT_SEED = 42
#: Seed held back while the benchmark was written; perf claims re-check on it.
CLAIM_SEED = 7

#: Measuring window of one run, seconds (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 20
#: Timed reps per run: at least MIN_REPS, more while the window lasts.
MIN_REPS = 4
#: A rep process still running after this long is killed and counted failed.
REP_TIMEOUT_S = 150.0

#: Host-speed probe time (``calibrate.probe_s``) at the reference speed:
#: ``wall_s`` and ``setup_s`` are a rep's host seconds times this over the
#: probe time the rep measures right after its timed region.  Rounded from
#: the probe on the 2-CPU Linux VM where the README's baselines were measured.
REFERENCE_PROBE_S = 0.09

#: Environment every rep process runs with, on top of the caller's
#: environment minus every ``REPRO_*`` variable: one worker, one BLAS
#: thread and a fixed hash seed, so reps form a closed loop of one batch
#: job and the per-process caches start cold, as in a ``repro-flow`` call.
#: No bytecode is written, so every rep compiles ``repro`` alike whatever
#: the checkout's ``__pycache__`` state.
REP_ENV = {
    "REPRO_JOBS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

#: Input sizes per workload.  ``scale`` multiplies Table I's sample counts
#: (``TableISettings.scaled``); ``model_scale`` is the scale of the
#: characterisation and area fit that build a workload's shared inputs.
SIZES: dict[str, dict] = {
    # Characterise wl 3..9 (2 anchors, 10 clocks, 245 samples), 42 MAC
    # syntheses, Alg. 1 at beta=4 (77 draws x 200 iterations), three
    # actual-domain evaluations.
    "headline": {"scale": 0.05, "n_char_locations": 2, "beta": 4.0},
    # One 9x9 sweep: 512 multiplicands x 2 anchors x 10 clocks, 128 shards.
    "char_wide": {"w_coeff": 9, "n_multiplicands": 512, "n_locations": 2, "n_samples": 490},
    # Alg. 1 alone for beta 4 and 8 at Table I x 0.1 (burn-in 100, 300 samples).
    "gibbs_deep": {"model_scale": 0.05, "scale": 0.1, "betas": [4.0, 8.0]},
    # 7 wl x 24 MAC syntheses, then 7 KLT + 5 OF designs in all three
    # domains on 2000 test vectors.
    "area_eval": {
        "model_scale": 0.05,
        "area_runs": 24,
        "n_test": 2000,
        "n_klt": 7,
        "n_of": 5,
        "beta": 4.0,
    },
}

#: Workloads whose reps load inputs built once per run by a prepare process.
PREPARED = ("gibbs_deep", "area_eval")

#: Tiny sizes for the self-test (``--smoke``): one rep, seconds per workload.
SMOKE_SIZES: dict[str, dict] = {
    "headline": {"scale": 0.01, "n_char_locations": 1, "beta": 4.0},
    "char_wide": {"w_coeff": 9, "n_multiplicands": 128, "n_locations": 2, "n_samples": 100},
    "gibbs_deep": {"model_scale": 0.01, "scale": 0.01, "betas": [4.0]},
    "area_eval": {
        "model_scale": 0.01,
        "area_runs": 2,
        "n_test": 60,
        "n_klt": 2,
        "n_of": 1,
        "beta": 4.0,
    },
}

#: Paper-result metrics a workload reports besides BENCHMARK.json's
#: end-to-end ones.  They are deterministic in the seed (the digest covers
#: them), so ``compare`` flags any worsening beyond ``bound``.
QUALITY: dict[str, dict[str, dict]] = {
    "headline": {
        # Target clock / KLT-9 tool Fmax (paper: up to 1.85x).
        "throughput_gain": {"unit": "x", "better": "higher", "bound": 0.0},
        # KLT-9 MSE / OF MSE, both at the 310 MHz target.
        "of_vs_klt_mse_ratio": {"unit": "x", "better": "higher", "bound": 0.10},
    },
    "gibbs_deep": {
        # Geometric mean over beta of the lowest objective_t.
        "best_objective": {"unit": "T", "better": "lower", "bound": 0.10},
    },
}


def sizes(workload: str, smoke: bool) -> dict:
    """The input sizes of ``workload`` (smoke or full)."""
    return (SMOKE_SIZES if smoke else SIZES)[workload]
