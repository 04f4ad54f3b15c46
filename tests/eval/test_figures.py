"""Tests for repro.eval.figures — every figure driver, tiny scale.

These exercise the drivers end to end and assert the paper's qualitative
shapes.  One shared tiny context keeps the wall-clock reasonable.
"""

import pytest

from repro.eval import figures, tables
from repro.eval.context import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.get(seed=42, scale=0.02, n_char_locations=1)


class TestFig1:
    def test_regimes_ordered(self, ctx):
        r = figures.fig1(ctx, n_samples=300, freq_step=30.0)
        assert r["fA_tool_mhz"] < r["fB_error_free_mhz"] < r["fC_meaningless_mhz"]

    def test_error_monotone_nondecreasing(self, ctx):
        r = figures.fig1(ctx, n_samples=300, freq_step=30.0)
        e = r["error_rate_percent"]
        assert all(a <= b + 1e-9 for a, b in zip(e, e[1:]))


class TestFig4:
    def test_two_locations_reported(self, ctx):
        r = figures.fig4(ctx, n_samples=800)
        assert set(r["locations"]) == {"loc 1", "loc 2"}

    def test_errors_present_at_320(self, ctx):
        r = figures.fig4(ctx, n_samples=800)
        rates = [v["error_rate"] for v in r["locations"].values()]
        assert max(rates) > 0

    def test_locations_differ(self, ctx):
        r = figures.fig4(ctx, n_samples=800)
        assert r["locations_differ"]


class TestFig5:
    def test_grid_dimensions(self, ctx):
        r = figures.fig5(ctx, n_samples=60, freqs_mhz=(280.0, 320.0, 360.0))
        assert r["variance_grid"].shape == (256, 3)

    def test_variance_grows_with_frequency(self, ctx):
        r = figures.fig5(ctx, n_samples=60, freqs_mhz=(280.0, 320.0, 360.0))
        m = r["mean_variance_per_freq"]
        assert m[-1] > m[0]

    def test_popcount_effect(self, ctx):
        r = figures.fig5(ctx, n_samples=60, freqs_mhz=(280.0, 320.0, 360.0))
        by_pop = r["mean_variance_by_popcount"]
        assert by_pop[8] > by_pop[1]


class TestFig6:
    def test_samples_cover_wordlengths(self, ctx):
        r = figures.fig6(ctx, n_runs=3)
        assert set(r["mean_le_by_wordlength"]) == set(
            ctx.settings.coeff_wordlengths
        )

    def test_area_monotone(self, ctx):
        r = figures.fig6(ctx, n_runs=3)
        means = [r["mean_le_by_wordlength"][wl] for wl in ctx.settings.coeff_wordlengths]
        assert means == sorted(means)


class TestFig7:
    def test_entropy_ordering(self, ctx):
        r = figures.fig7(ctx)
        es = [r["betas"][b]["entropy"] for b in (0.1, 1.0, 4.0)]
        assert es == sorted(es, reverse=True)

    def test_beta4_suppression(self, ctx):
        r = figures.fig7(ctx)
        assert r["betas"][4.0]["mass_ratio_max_min"] > r["betas"][0.1]["mass_ratio_max_min"]


class TestFig8:
    def test_rows_per_wordlength(self, ctx):
        r = figures.fig8(ctx, n_samples=300, freq_step=30.0)
        assert len(r["rows"]) == len(ctx.settings.coeff_wordlengths)

    def test_tool_below_datapath(self, ctx):
        r = figures.fig8(ctx, n_samples=300, freq_step=30.0)
        for row in r["rows"]:
            assert row["tool_fmax_mhz"] < row["datapath_fmax_mhz"]

    def test_fmax_decreases_with_wordlength(self, ctx):
        r = figures.fig8(ctx, n_samples=300, freq_step=30.0)
        tools = [row["tool_fmax_mhz"] for row in r["rows"]]
        assert tools == sorted(tools, reverse=True)

    def test_target_is_overclocking(self, ctx):
        r = figures.fig8(ctx, n_samples=300, freq_step=30.0)
        assert r["overclock_factor_vs_9bit_tool"] > 1.5


class TestFig9:
    def test_high_coverage(self, ctx):
        # At this tiny fit scale the sigma estimate itself is noisy; the
        # full-scale bench asserts the paper's "most points inside" more
        # tightly.
        r = figures.fig9(ctx, n_validation_runs=6)
        assert r["coverage"] >= 0.7

    def test_rows_have_predictions(self, ctx):
        r = figures.fig9(ctx, n_validation_runs=3)
        for row in r["rows"]:
            assert row["predicted_le"] > 0


class TestFig10:
    def test_three_domains_per_design(self, ctx):
        r = figures.fig10(ctx)
        assert len(r["rows"]) == ctx.settings.q
        for row in r["rows"]:
            assert row["predicted_mse"] > 0
            assert row["simulated_mse"] > 0
            assert row["actual_mse"] > 0

    def test_prediction_tracks_actual(self, ctx):
        r = figures.fig10(ctx)
        for row in r["rows"]:
            assert row["actual_mse"] < 50 * row["predicted_mse"] + 1e-3


class TestFig11:
    def test_klt_and_of_families(self, ctx):
        r = figures.fig11(ctx)
        assert len(r["klt_rows"]) == len(ctx.settings.coeff_wordlengths)
        assert len(r["of_rows"]) == ctx.settings.q

    def test_of_improves_over_klt(self, ctx):
        r = figures.fig11(ctx)
        assert r["geometric_mean_improvement"] > 1.0


class TestRuntimeTable:
    def test_paper_example(self, ctx):
        r = tables.runtime_model_table(ctx)
        assert abs(r["paper_example_seconds"] - 6240) / 6240 < 0.05

    def test_measured_counts(self, ctx):
        r = tables.runtime_model_table(ctx)
        assert r["n_vector_samplings"] == r["expected_vector_samplings"]
        assert r["measured_total_seconds"] > 0

    def test_fitted_model_exists(self, ctx):
        r = tables.runtime_model_table(ctx)
        assert r["fitted_model"] is not None

    def test_fitted_rate_grows_with_wordlength(self, ctx):
        """Eq. (8)'s shape survives the lockstep sampler's time split: a
        wider grid costs more per draw (in the gibbs_deep benchmark
        workload a wl 9 draw's record averaged 36 ms against 9.5 ms at
        wl 3)."""
        r = tables.runtime_model_table(ctx)
        assert r["fitted_model"]["rate"] > 0


class TestTable1:
    def test_paper_settings_echoed(self):
        r = tables.table1()
        assert r["matches_paper"]
        assert r["paper"]["n_characterization"] == 4900

    def test_custom_settings_flagged(self, ctx):
        r = tables.table1(ctx.settings)
        assert not r["matches_paper"]


class TestHeadline:
    def test_three_operating_points(self, ctx):
        r = figures.headline(ctx)
        assert len(r["rows"]) == 3
        safe, klt_fast, of_fast = r["rows"]
        assert safe["freq_mhz"] < klt_fast["freq_mhz"]
        assert klt_fast["freq_mhz"] == of_fast["freq_mhz"]

    def test_throughput_gain_in_paper_regime(self, ctx):
        r = figures.headline(ctx)
        assert r["throughput_gain"] > 1.5

    def test_of_no_worse_than_klt_at_target(self, ctx):
        r = figures.headline(ctx)
        assert r["of_vs_klt_at_target_mse_ratio"] >= 1.0
