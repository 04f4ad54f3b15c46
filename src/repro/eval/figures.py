"""Drivers for every figure of the paper's evaluation.

Each driver returns a dict of numeric series — the same data the paper's
figure plots — plus derived summary statistics used by the benches'
qualitative assertions.  No plotting: the benches print the rows.
"""

from __future__ import annotations

import numpy as np

from ..characterization.harness import CharacterizationConfig, characterize_multiplier, error_trace
from ..circuits.datapath import ProjectionDatapath
from ..circuits.domains import Domain
from ..fabric.jitter import JitterModel
from ..models.area_model import collect_area_samples
from ..models.error_model import build_error_model
from ..models.prior import CoefficientPrior
from ..netlist.core import bits_from_ints
from ..netlist.multipliers import unsigned_array_multiplier
from ..rng import SeedTree
from ..synthesis.flow import SynthesisFlow
from ..timing.capture import capture_stream_batch
from ..timing.simulator import simulate_transitions
from .context import ExperimentContext

__all__ = [
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "headline",
]


# ----------------------------------------------------------------------
def fig1(
    ctx: ExperimentContext,
    w_bits: int = 8,
    freq_lo: float = 150.0,
    freq_hi: float = 480.0,
    freq_step: float = 15.0,
    n_samples: int | None = None,
) -> dict:
    """Fig. 1: error percentage at a generic multiplier's output vs clock.

    Identifies the three landmarks of the paper's conceptual figure: the
    tool-reported limit fA, the highest error-free frequency fB (end of
    the Delta-f1 regime) and the frequency fC past which results stop
    being meaningful (here: cycle error rate >= 50%).
    """
    n = n_samples if n_samples is not None else max(400, ctx.settings.n_characterization)
    tree = SeedTree(ctx.seed).child("fig1")
    flow = SynthesisFlow(ctx.device)
    placed = flow.run(unsigned_array_multiplier(w_bits, w_bits), anchor=(0, 0), seed=ctx.seed)

    rng = tree.rng("stimulus")
    a = rng.integers(0, 1 << w_bits, size=n + 1)
    b = rng.integers(0, 1 << w_bits, size=n + 1)
    inputs = {
        "a": bits_from_ints(a, w_bits),
        "b": bits_from_ints(b, w_bits),
    }
    timing = simulate_transitions(placed.netlist, inputs, placed.node_delay, placed.edge_delay)

    freqs = np.arange(freq_lo, freq_hi + 1e-9, freq_step)
    batch = capture_stream_batch(
        timing,
        "p",
        freqs,
        setup_ns=placed.setup_ns,
        jitter=JitterModel(),
        rngs=[tree.rng("jitter", f"{f}") for f in freqs],
    )
    rates_arr = (batch.captured != batch.ideal).mean(axis=1)

    fa = placed.tool_report.fmax_mhz
    error_free = freqs[rates_arr == 0]
    fb = float(error_free.max()) if error_free.size else float(freqs[0])
    above_half = freqs[rates_arr >= 0.5]
    fc = float(above_half.min()) if above_half.size else float(freqs[-1])
    return {
        "freqs_mhz": freqs.tolist(),
        "error_rate_percent": (100.0 * rates_arr).tolist(),
        "fA_tool_mhz": fa,
        "fB_error_free_mhz": fb,
        "fC_meaningless_mhz": fc,
        "device_sta_fmax_mhz": placed.device_sta().fmax_mhz,
    }


# ----------------------------------------------------------------------
def fig4(
    ctx: ExperimentContext,
    multiplicand: int = 222,
    freq_mhz: float = 320.0,
    n_samples: int | None = None,
    n_trace: int = 100,
    n_hist_bins: int = 20,
) -> dict:
    """Fig. 4: per-cycle errors of an 8x8 multiplier at two locations.

    The paper streams 29 400 values with the multiplicand fixed at 222 at
    320 MHz and shows the first 100 errors plus full-test histograms for
    two placements.
    """
    n = n_samples if n_samples is not None else min(29400, 20 * ctx.settings.n_characterization)
    locations = [(0, 0), (ctx.device.cols - 24, ctx.device.rows - 24)]
    out: dict = {
        "multiplicand": multiplicand,
        "freq_mhz": freq_mhz,
        "n_samples": n,
        "locations": {},
    }
    for i, loc in enumerate(locations, start=1):
        run = error_trace(
            ctx.device,
            multiplicand,
            freq_mhz,
            n,
            w_data=8,
            w_coeff=8,
            location=loc,
            seed=ctx.seed + i,
        )
        errors = run.errors
        nonzero = errors[errors != 0]
        hist, edges = np.histogram(nonzero, bins=n_hist_bins) if nonzero.size else (
            np.zeros(n_hist_bins, dtype=int),
            np.linspace(-1, 1, n_hist_bins + 1),
        )
        out["locations"][f"loc {i}"] = {
            "anchor": loc,
            "first_errors": errors[:n_trace].tolist(),
            "error_rate": run.error_rate,
            "error_variance": run.error_variance,
            "histogram_counts": hist.tolist(),
            "histogram_edges": edges.tolist(),
        }
    r1 = out["locations"]["loc 1"]
    r2 = out["locations"]["loc 2"]
    out["locations_differ"] = bool(
        r1["error_rate"] != r2["error_rate"]
        or r1["first_errors"] != r2["first_errors"]
    )
    return out


# ----------------------------------------------------------------------
def fig5(
    ctx: ExperimentContext,
    w_bits: int = 8,
    freqs_mhz: tuple[float, ...] = (280.0, 300.0, 320.0, 340.0, 360.0),
    n_samples: int | None = None,
) -> dict:
    """Fig. 5: the error-model heat map E(m, f) of an 8x8 multiplier.

    Returns the variance grid over all multiplicands x frequencies and
    the summary statistics behind the paper's two observations: variance
    grows with frequency, and multiplicands with few '1' bits err less.
    """
    n = n_samples if n_samples is not None else ctx.settings.n_characterization
    cfg = CharacterizationConfig(
        freqs_mhz=freqs_mhz, n_samples=n, multiplicands=None, n_locations=1
    )
    result = characterize_multiplier(ctx.device, w_bits, w_bits, cfg, seed=ctx.seed)
    model = build_error_model(result)
    grid = model.heatmap()

    popcounts = np.array([bin(m).count("1") for m in result.multiplicands])
    mean_var_by_popcount = {
        int(c): float(grid[popcounts == c].mean()) for c in sorted(set(popcounts.tolist()))
    }
    return {
        "multiplicands": result.multiplicands.tolist(),
        "freqs_mhz": result.freqs_mhz.tolist(),
        "variance_grid": grid,
        "mean_variance_per_freq": grid.mean(axis=0).tolist(),
        "mean_variance_by_popcount": mean_var_by_popcount,
    }


# ----------------------------------------------------------------------
def fig6(ctx: ExperimentContext, n_runs: int = 6) -> dict:
    """Fig. 6: raw area-model data — LE vs word-length across locations."""
    samples = collect_area_samples(
        ctx.device,
        ctx.settings.coeff_wordlengths,
        w_data=ctx.settings.input_wordlength,
        n_runs=n_runs,
        seed=ctx.seed,
    )
    rows = [
        (s.wordlength, s.logic_elements, s.location[0], s.location[1]) for s in samples
    ]
    by_wl: dict[int, list[int]] = {}
    for s in samples:
        by_wl.setdefault(s.wordlength, []).append(s.logic_elements)
    return {
        "samples": rows,
        "mean_le_by_wordlength": {wl: float(np.mean(v)) for wl, v in by_wl.items()},
        "spread_le_by_wordlength": {wl: float(np.ptp(v)) for wl, v in by_wl.items()},
    }


# ----------------------------------------------------------------------
def fig7(
    ctx: ExperimentContext,
    betas: tuple[float, ...] = (0.1, 1.0, 4.0),
    freq_mhz: float = 340.0,
    wordlength: int = 8,
) -> dict:
    """Fig. 7: the coefficient prior for beta in {0.1, 1.0, 4.0}.

    Small beta flattens the prior; large beta suppresses coefficient
    values with high over-clocking error variance.
    """
    model = ctx.framework.characterize().model(wordlength)
    out: dict = {"freq_mhz": freq_mhz, "wordlength": wordlength, "betas": {}}
    for b in betas:
        prior = CoefficientPrior.from_error_model(model, freq_mhz, b)
        out["betas"][b] = {
            "values": prior.values.tolist(),
            "mass": prior.mass.tolist(),
            "entropy": prior.entropy(),
            "mass_ratio_max_min": float(prior.mass.max() / prior.mass.min()),
        }
    return out


# ----------------------------------------------------------------------
def fig8(
    ctx: ExperimentContext,
    freq_lo: float = 150.0,
    freq_hi: float = 600.0,
    freq_step: float = 15.0,
    n_samples: int | None = None,
) -> dict:
    """Fig. 8: max clock frequencies vs word-length for the KLT design.

    Per word-length: the tool-reported Fmax (green), the device-true STA
    bound and the measured error-free data-path Fmax (yellow), and the
    error-onset range up to the frequency where results stop being
    meaningful (red).
    """
    n = n_samples if n_samples is not None else max(400, ctx.settings.n_characterization)
    tree = SeedTree(ctx.seed).child("fig8")
    rows = []
    for design in ctx.klt_designs():
        wl = design.wordlengths[0]
        datapath = ProjectionDatapath(design, ctx.device, anchor=(0, 0), seed=ctx.seed)
        # Worst lane carries the critical path.
        lane = int(np.argmin([pd.device_sta().fmax_mhz for pd in datapath.lanes]))
        placed = datapath.lanes[lane]
        rng = tree.rng("stim", str(wl))
        n_eff = n + 1
        a = rng.integers(0, 1 << design.w_data, size=n_eff)
        b = np.tile(design.magnitudes[:, lane], n_eff // design.p + 1)[:n_eff]
        inputs = {
            "a": bits_from_ints(a, design.w_data),
            "b": bits_from_ints(b, wl),
        }
        timing = simulate_transitions(
            placed.netlist, inputs, placed.node_delay, placed.edge_delay
        )
        freqs = np.arange(freq_lo, freq_hi + 1e-9, freq_step)
        batch = capture_stream_batch(
            timing,
            "p",
            freqs,
            setup_ns=placed.setup_ns,
            jitter=JitterModel(),
            rngs=[tree.rng("jit", str(wl), f"{f}") for f in freqs],
        )
        rates = (batch.captured != batch.ideal).mean(axis=1)
        error_free = freqs[rates == 0]
        onset = float(error_free.max()) if error_free.size else float(freqs[0])
        meaningless = freqs[rates >= 0.5]
        fc = float(meaningless.min()) if meaningless.size else float(freqs[-1])
        rows.append(
            {
                "wordlength": wl,
                "tool_fmax_mhz": datapath.tool_fmax_mhz(),
                "device_sta_fmax_mhz": datapath.device_fmax_mhz(),
                "datapath_fmax_mhz": onset,
                "error_onset_range_mhz": (onset, fc),
            }
        )
    target = ctx.settings.clock_frequency_mhz
    wl9 = rows[-1]
    return {
        "rows": rows,
        "target_freq_mhz": target,
        "overclock_factor_vs_9bit_tool": target / wl9["tool_fmax_mhz"],
    }


# ----------------------------------------------------------------------
def fig9(ctx: ExperimentContext, n_validation_runs: int = 4) -> dict:
    """Fig. 9: area-model predictions vs fresh synthesis observations.

    Validation samples come from synthesis runs with seeds the fit never
    saw; the paper's criterion is the fraction inside the 95% band.
    """
    model = ctx.framework.fit_area_model()
    fresh = collect_area_samples(
        ctx.device,
        ctx.settings.coeff_wordlengths,
        w_data=ctx.settings.input_wordlength,
        n_runs=n_validation_runs,
        seed=ctx.seed + 777_000,
    )
    rows = []
    hits = 0
    for s in fresh:
        predicted = float(model.predict(s.wordlength))
        inside = model.within_interval(s.wordlength, s.logic_elements)
        hits += int(inside)
        rows.append(
            {
                "wordlength": s.wordlength,
                "predicted_le": predicted,
                "actual_le": s.logic_elements,
                "within_95ci": inside,
            }
        )
    return {
        "rows": rows,
        "coverage": hits / len(fresh),
        "residual_sigma": model.residual_sigma,
        "coeffs": model.coeffs.tolist(),
    }


# ----------------------------------------------------------------------
def fig10(ctx: ExperimentContext, beta: float | None = None) -> dict:
    """Fig. 10: predicted vs simulated vs actual MSE-vs-area for OF designs."""
    result = ctx.of_result(beta)
    rows = []
    for design in sorted(result.designs, key=lambda d: d.area_le or 0.0):
        evs = ctx.framework.evaluate_all_domains(design, ctx.x_test)
        rows.append(
            {
                "wordlengths": design.wordlengths,
                "area_le": evs[Domain.ACTUAL].area_le,
                "predicted_mse": evs[Domain.PREDICTED].mse,
                "simulated_mse": evs[Domain.SIMULATED].mse,
                "actual_mse": evs[Domain.ACTUAL].mse,
            }
        )
    # Paper observation: simulated and actual agree best for small areas.
    devs = [
        abs(r["actual_mse"] - r["simulated_mse"]) / max(r["simulated_mse"], 1e-300)
        for r in rows
    ]
    return {
        "rows": rows,
        "beta": result.beta,
        "freq_mhz": result.freq_mhz,
        "relative_sim_actual_deviation": devs,
    }


# ----------------------------------------------------------------------
def fig11(ctx: ExperimentContext, beta: float | None = None) -> dict:
    """Fig. 11: OF designs vs the KLT methodology at the target clock.

    Returns actual and predicted (area, MSE) points for both families and
    the average actual-MSE improvement of OF over KLT at comparable area
    (the paper quotes "around an order of magnitude on average").
    """
    of_rows = fig10(ctx, beta)["rows"]
    klt_rows = []
    for design in ctx.klt_designs():
        ev_act = ctx.framework.evaluate(design, ctx.x_test, Domain.ACTUAL)
        ev_pred = ctx.framework.evaluate(design, ctx.x_test, Domain.PREDICTED)
        klt_rows.append(
            {
                "wordlength": design.wordlengths[0],
                "area_le": ev_act.area_le,
                "actual_mse": ev_act.mse,
                "predicted_mse": ev_pred.mse,
                "lane_error_rates": ev_act.extra["lane_error_rates"],
            }
        )
    # Improvement at comparable area: for each KLT point, the best OF
    # design not exceeding its area (+5% tolerance).
    ratios = []
    for kr in klt_rows:
        feasible = [r for r in of_rows if r["area_le"] <= kr["area_le"] * 1.05]
        if not feasible:
            continue
        best_of = min(f["actual_mse"] for f in feasible)
        if best_of > 0:
            ratios.append(kr["actual_mse"] / best_of)
    geo_mean = float(np.exp(np.mean(np.log(ratios)))) if ratios else float("nan")
    return {
        "of_rows": of_rows,
        "klt_rows": klt_rows,
        "improvement_ratios": ratios,
        "geometric_mean_improvement": geo_mean,
        "freq_mhz": ctx.settings.clock_frequency_mhz,
    }


# ----------------------------------------------------------------------
def headline(ctx: ExperimentContext, beta: float | None = None) -> dict:
    """The abstract's claim: higher throughput (up to 1.85x) with fewer
    errors than the typical implementation methodology.

    Three operating points on the same device, same data:

    * the typical methodology at its *safe* clock — the 9-bit KLT design
      clocked at what the synthesis tool signs off (error-free, slow);
    * the typical methodology pushed to the target clock (fast, error-
      prone);
    * the optimisation framework's best design at the target clock.

    Throughput is reported as multiplications per second per MAC lane
    (= clock rate: one multiply per lane per cycle).
    """
    import dataclasses

    klt9 = ctx.klt_designs()[-1]
    of_best = min(
        ctx.of_result(beta).designs, key=lambda d: d.metadata["objective_t"]
    )
    target = ctx.settings.clock_frequency_mhz

    ev_klt_target = ctx.framework.evaluate(klt9, ctx.x_test, Domain.ACTUAL)
    tool_fmax = ev_klt_target.extra["tool_fmax_mhz"]
    klt9_safe = dataclasses.replace(klt9, freq_mhz=tool_fmax)
    ev_klt_safe = ctx.framework.evaluate(klt9_safe, ctx.x_test, Domain.ACTUAL)
    ev_of = ctx.framework.evaluate(of_best, ctx.x_test, Domain.ACTUAL)

    rows = [
        {
            "configuration": f"KLT-9 @ tool Fmax ({tool_fmax:.0f} MHz)",
            "freq_mhz": tool_fmax,
            "mse": ev_klt_safe.mse,
            "area_le": ev_klt_safe.area_le,
            "worst_lane_error_rate": max(ev_klt_safe.extra["lane_error_rates"]),
        },
        {
            "configuration": f"KLT-9 @ target ({target:.0f} MHz)",
            "freq_mhz": target,
            "mse": ev_klt_target.mse,
            "area_le": ev_klt_target.area_le,
            "worst_lane_error_rate": max(ev_klt_target.extra["lane_error_rates"]),
        },
        {
            "configuration": f"OF {of_best.wordlengths} @ target ({target:.0f} MHz)",
            "freq_mhz": target,
            "mse": ev_of.mse,
            "area_le": ev_of.area_le,
            "worst_lane_error_rate": max(ev_of.extra["lane_error_rates"]),
        },
    ]
    return {
        "rows": rows,
        "throughput_gain": target / tool_fmax,
        "of_vs_klt_at_target_mse_ratio": ev_klt_target.mse / max(ev_of.mse, 1e-300),
        "of_mse_penalty_vs_safe_klt": ev_of.mse / max(ev_klt_safe.mse, 1e-300),
    }
