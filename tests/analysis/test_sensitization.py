"""Sensitisation-aware STA tests (acceptance: tightness + agreement)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    agreement_report,
    coefficient_timing_profile,
    sensitized_sta,
)
from repro.errors import AnalysisError
from repro.models.error_model import build_error_model
from repro.netlist import ccm_multiplier
from repro.parallel import get_default_cache

#: Multiplicands exercised by the tightness tests: boundary and mixed
#: popcount values of the 8-bit coefficient bus.
SAMPLE_MS = [0, 1, 2, 37, 128, 222, 255]


@pytest.fixture(scope="module")
def profile8(placed_mult8):
    return coefficient_timing_profile(placed_mult8, multiplicands=SAMPLE_MS)


class TestSensitizedSta:
    def test_never_worse_than_plain_sta(self, placed_mult8):
        plain = placed_mult8.device_sta()
        for m in SAMPLE_MS:
            pruned = sensitized_sta(placed_mult8, {"b": m})
            assert pruned.critical_path_ns <= plain.critical_path_ns + 1e-12
            for bus, arr in plain.output_arrival.items():
                assert np.all(
                    pruned.output_arrival[bus] <= arr + 1e-12
                ), f"m={m} bus={bus}"

    def test_no_assumptions_matches_plain_on_live_logic(self, placed_mult8):
        # The generic multiplier has no structurally-constant live cone,
        # so unconditional pruning must not change the bound.
        plain = placed_mult8.device_sta()
        pruned = sensitized_sta(placed_mult8)
        assert pruned.critical_path_ns == pytest.approx(plain.critical_path_ns)

    def test_zero_multiplicand_freezes_everything(self, placed_mult8):
        pruned = sensitized_sta(placed_mult8, {"b": 0})
        assert np.all(pruned.output_arrival["p"] == 0.0)

    def test_bound_is_sound_for_simulated_transitions(self, placed_mult8):
        """Settle times under the assumption never exceed the pruned bound."""
        from repro.netlist.core import bits_from_ints
        from repro.timing.simulator import simulate_transitions

        rng = np.random.default_rng(5)
        for m in [1, 37, 222]:
            pruned = sensitized_sta(placed_mult8, {"b": m})
            a = rng.integers(0, 256, size=33)
            inputs = {
                "a": bits_from_ints(a, 8),
                "b": bits_from_ints(np.full(33, m), 8),
            }
            sim = simulate_transitions(
                placed_mult8.netlist,
                inputs,
                placed_mult8.node_delay,
                placed_mult8.edge_delay,
            )
            out_ids = placed_mult8.netlist.output_buses["p"]
            settle = sim.settle[out_ids]  # (width, n_transitions)
            # settle is float32; allow for its rounding against the
            # float64 STA bound.
            bound = pruned.output_arrival["p"][:, None]
            assert np.all(settle.astype(np.float64) <= bound * (1 + 1e-6) + 1e-6)


class TestCoefficientTimingProfile:
    def test_acceptance_min_period_below_worst_case(self, profile8):
        # Every (coefficient, output bit) cell obeys the worst-case bound.
        assert np.all(
            profile8.min_period_ns
            <= profile8.worst_case_period_ns[None, :] + 1e-12
        )

    def test_acceptance_m0_strictly_tighter(self, profile8):
        # m=0 freezes the whole product: only setup remains, which is
        # strictly below the worst-case period of every real path.
        row0 = profile8.row(0)
        assert np.all(row0 == pytest.approx(profile8.setup_ns))
        assert np.all(row0 < profile8.worst_case_period_ns)

    def test_static_fmax_shapes(self, profile8):
        fmax = profile8.static_fmax_mhz()
        assert fmax.shape == (len(SAMPLE_MS),)
        # m=0 has no sensitisable path beyond setup: huge (or inf) bound.
        assert fmax[0] == np.max(fmax)
        assert np.all(fmax > 0)

    def test_row_unknown_multiplicand_rejected(self, profile8):
        with pytest.raises(AnalysisError, match="not in the analysed"):
            profile8.row(3)

    def test_variance_proxy_monotone_in_frequency(self, profile8):
        slow = profile8.variance_proxy_at(100.0)
        fast = profile8.variance_proxy_at(2000.0)
        assert np.all(slow <= fast)
        # At a clock every bit makes, the static error prediction is zero.
        assert np.all(profile8.variance_proxy_at(1.0) == 0.0)

    def test_validation(self, placed_mult8):
        with pytest.raises(AnalysisError, match="ascending"):
            coefficient_timing_profile(placed_mult8, multiplicands=[3, 3])
        with pytest.raises(AnalysisError, match="no input bus"):
            coefficient_timing_profile(placed_mult8, coeff_bus="zz")
        with pytest.raises(AnalysisError, match="no output bus"):
            coefficient_timing_profile(placed_mult8, out_bus="zz")

    def test_ccm_profile_over_data_bus(self, flow):
        # The same machinery works with the data bus as sweep variable.
        placed = flow.run(ccm_multiplier(93, 6), seed=3)
        prof = coefficient_timing_profile(
            placed, multiplicands=[0, 1, 63], coeff_bus="x"
        )
        assert prof.min_period_ns.shape == (3, prof.width)

    def test_as_dict_jsonable(self, profile8):
        import json

        blob = json.loads(json.dumps(profile8.as_dict()))
        assert blob["multiplicands"] == SAMPLE_MS
        assert len(blob["min_period_ns"]) == len(SAMPLE_MS)


class TestAgreement:
    def test_acceptance_consistent_with_characterisation(
        self, device, char_result
    ):
        """Static-clean cells never show measured errors (same placement)."""
        loc = char_result.locations[0]
        model = build_error_model(char_result, location=loc)
        placed = get_default_cache().get_or_place(
            device, char_result.w_data, char_result.w_coeff, loc, 11
        )
        profile = coefficient_timing_profile(placed)
        report = agreement_report(profile, model)
        assert report["consistent"], report["violations"]
        assert report["n_cells"] == 16 * len(model.freqs_mhz)
        # The whole point: some coefficient beats the worst-case bound.
        assert report["n_tighter_than_worst_case"] >= 1

    def test_guard_validation(self, profile8, error_model):
        with pytest.raises(AnalysisError, match="guard_ns"):
            agreement_report(profile8, error_model, guard_ns=-1.0)

    def test_disjoint_multiplicands_rejected(self, placed_mult8, error_model):
        profile = coefficient_timing_profile(
            placed_mult8, multiplicands=[200, 250]
        )
        with pytest.raises(AnalysisError, match="shared"):
            agreement_report(profile, error_model)
