"""Tests for repro.characterization.harness — the full sweep."""

import numpy as np
import pytest

from repro.characterization import (
    CharacterizationConfig,
    characterize_multiplier,
    error_trace,
)
from repro.errors import CharacterizationError, ConfigError
from repro.fabric import make_device
from repro.netlist.core import bits_from_ints
from repro.parallel import PlacedDesignCache, get_default_cache, multiplier_netlist
from repro.rng import SeedTree
from repro.synthesis import SynthesisFlow
from repro.timing.capture import capture_stream
from repro.timing.simulator import simulate_transitions


class TestConfigValidation:
    def test_defaults_ok(self):
        CharacterizationConfig()

    def test_empty_freqs_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(freqs_mhz=())

    def test_negative_freq_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(freqs_mhz=(100.0, -5.0))

    def test_tiny_samples_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(n_samples=1)

    def test_zero_locations_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(n_locations=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_freq_rejected(self, bad):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(freqs_mhz=(300.0, bad))

    @pytest.mark.parametrize(
        "name, value", [("n_samples", 2.5), ("n_locations", 1.5), ("segment_chunk", 2.5)]
    )
    def test_non_integral_count_rejected(self, name, value):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(**{name: value})

    def test_non_integral_multiplicand_rejected(self):
        with pytest.raises(CharacterizationError):
            CharacterizationConfig(multiplicands=(1.5,))

    def test_numpy_integers_accepted(self):
        CharacterizationConfig(
            n_samples=np.int64(10),
            n_locations=np.int32(1),
            segment_chunk=np.int64(4),
            multiplicands=tuple(np.arange(4)),
        )


class TestSweep:
    def test_grid_shapes(self, char_result):
        l, m, f = (
            len(char_result.locations),
            len(char_result.multiplicands),
            len(char_result.freqs_mhz),
        )
        assert char_result.variance.shape == (l, m, f)
        assert l == 2 and m == 16 and f == 5

    def test_variance_monotone_in_frequency_on_average(self, char_result):
        """Paper Sec. III-C: errors are cumulative with frequency."""
        mean_per_freq = char_result.variance.mean(axis=(0, 1))
        assert mean_per_freq[-1] > mean_per_freq[0]
        # Last frequency must show substantial errors.
        assert mean_per_freq[-1] > 0

    def test_low_frequency_error_free(self, char_result):
        assert np.all(char_result.variance[:, :, 0] == 0)

    def test_sparse_multiplicands_err_less(self, char_result):
        """Paper Fig. 5: few '1' bits -> fewer over-clocking errors."""
        mags = char_result.multiplicands
        pop = np.array([bin(m).count("1") for m in mags])
        v_hi = char_result.variance[:, :, -1].mean(axis=0)
        sparse = v_hi[pop <= 1].mean()
        dense = v_hi[pop >= 3].mean()
        assert dense > sparse

    def test_locations_differ(self, char_result):
        """Paper Fig. 4: placement changes the error pattern."""
        v0 = char_result.variance[0]
        v1 = char_result.variance[1]
        assert not np.allclose(v0, v1)

    def test_explicit_multiplicand_subset(self, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(300.0, 400.0),
            n_samples=60,
            multiplicands=(3, 200),
            n_locations=1,
        )
        res = characterize_multiplier(device, 8, 8, cfg, seed=0)
        assert res.multiplicands.tolist() == [3, 200]

    def test_multiplicand_out_of_range_rejected(self, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(300.0,), n_samples=60, multiplicands=(300,), n_locations=1
        )
        with pytest.raises(CharacterizationError):
            characterize_multiplier(device, 8, 4, cfg, seed=0)

    def test_deterministic(self, device):
        cfg = CharacterizationConfig(
            freqs_mhz=(380.0,), n_samples=80, multiplicands=(255,), n_locations=1
        )
        a = characterize_multiplier(device, 8, 8, cfg, seed=5)
        b = characterize_multiplier(device, 8, 8, cfg, seed=5)
        assert np.array_equal(a.variance, b.variance)

    def test_device_specific(self, device, other_device):
        cfg = CharacterizationConfig(
            freqs_mhz=(400.0,), n_samples=120, multiplicands=(255, 170), n_locations=1
        )
        a = characterize_multiplier(device, 8, 8, cfg, seed=5)
        b = characterize_multiplier(other_device, 8, 8, cfg, seed=5)
        assert not np.allclose(a.variance, b.variance)


class TestErrorTrace:
    def test_trace_statistics(self, device):
        run = error_trace(device, 222, 420.0, 500, location=(0, 0), seed=1)
        assert run.captured.shape == (500,)
        assert run.error_rate > 0

    def test_trace_deterministic(self, device):
        a = error_trace(device, 222, 420.0, 200, seed=1)
        b = error_trace(device, 222, 420.0, 200, seed=1)
        assert np.array_equal(a.captured, b.captured)

    @pytest.mark.parametrize(
        "multiplicand, n_samples", [(2.5, 50), (222, 2.5), (222, -5)]
    )
    def test_non_integral_or_negative_inputs_rejected(self, device, multiplicand, n_samples):
        with pytest.raises(CharacterizationError):
            error_trace(device, multiplicand, 300.0, n_samples)

    def test_nan_clock_rejected(self, device):
        with pytest.raises(ConfigError):
            error_trace(device, 222, float("nan"), 50)

    @pytest.mark.parametrize("location", [(0, 0), (24, 16)])
    @pytest.mark.parametrize("freq_mhz", [300.0, 420.0])
    def test_matches_direct_replica(self, device, location, freq_mhz):
        """Pinned to placement, settle simulation and capture called directly."""
        run = error_trace(device, 222, freq_mhz, 300, location=location, seed=3)

        placed = get_default_cache().get_or_place(device, 8, 8, location, 3)
        tree = SeedTree(3).child("trace", str(location))
        stim = tree.rng("stimulus").integers(0, 256, size=301, dtype=np.int64)
        timing = simulate_transitions(
            placed.netlist,
            {"a": bits_from_ints(stim, 8), "b": bits_from_ints(np.full(301, 222), 8)},
            placed.node_delay,
            placed.edge_delay,
        )
        pll = device.family.pll
        achieved = pll.synthesize(freq_mhz).achieved_mhz
        ref = capture_stream(
            timing, "p", achieved, setup_ns=placed.setup_ns, jitter=pll.jitter,
            rng=tree.rng("capture", f"{freq_mhz}"),
        )
        assert run.multiplicand == 222
        assert run.freq_mhz == achieved
        assert run.captured.dtype == run.expected.dtype == np.int64
        assert run.captured.tobytes() == ref.captured_ints().tobytes()
        assert run.expected.tobytes() == ref.ideal_ints().tobytes()


def _legacy_sweep(device, w_data, w_coeff, config, seed):
    """Replica of the harness loop as it was before the sharded engine.

    Same seed paths and draw order as the engine, but the old
    structure: a probe placement, a fresh synthesis per location, one
    reference ``capture_stream`` per frequency and per-segment statistics
    in Python.
    """
    tree = SeedTree(seed).child("characterization", f"{w_data}x{w_coeff}")
    multiplicands = np.asarray(config.multiplicands, dtype=np.int64)
    pll = device.family.pll

    seen, freq_requests = set(), []
    for f in sorted(config.freqs_mhz):
        achieved_f = round(pll.synthesize(f).achieved_mhz, 6)
        if achieved_f not in seen:
            seen.add(achieved_f)
            freq_requests.append(f)

    flow = SynthesisFlow(device)
    probe = flow.run(multiplier_netlist(w_data, w_coeff), anchor=(0, 0), seed=seed)
    locations = tuple(flow.available_anchors(probe.netlist, config.n_locations))

    n_f, n_m, n_l = len(freq_requests), multiplicands.shape[0], len(locations)
    variance = np.zeros((n_l, n_m, n_f))
    mean = np.zeros((n_l, n_m, n_f))
    rate = np.zeros((n_l, n_m, n_f))
    seg_len = config.n_samples + 1
    achieved = [pll.synthesize(f).achieved_mhz for f in freq_requests]

    for li, loc in enumerate(locations):
        # An empty cache: every location is synthesised.
        placed = PlacedDesignCache().get_or_place(device, w_data, w_coeff, loc, seed + li)
        stim_rng = tree.rng("stimulus", str(loc))
        for start in range(0, n_m, config.segment_chunk):
            chunk = multiplicands[start : start + config.segment_chunk]
            stream = stim_rng.integers(
                0, 1 << w_data, size=seg_len * chunk.shape[0], dtype=np.int64
            )
            inputs = {
                "a": bits_from_ints(stream, w_data),
                "b": bits_from_ints(np.repeat(chunk, seg_len), w_coeff),
            }
            timing = simulate_transitions(
                placed.netlist,
                inputs,
                placed.node_delay,
                placed.edge_delay,
            )
            n_tr = seg_len * chunk.shape[0] - 1
            valid = np.ones(n_tr, dtype=bool)
            valid[np.arange(1, chunk.shape[0]) * seg_len - 1] = False
            seg_of_transition = np.arange(n_tr) // seg_len
            for fi, f in enumerate(freq_requests):
                cap_rng = tree.rng("capture", str(loc), f"{f}", str(start))
                run_all = capture_stream(
                    timing,
                    "p",
                    pll.synthesize(f).achieved_mhz,
                    setup_ns=placed.setup_ns,
                    jitter=pll.jitter,
                    rng=cap_rng,
                )
                errors = run_all.errors()
                for ci in range(chunk.shape[0]):
                    e = errors[valid & (seg_of_transition == ci)]
                    mi = start + ci
                    variance[li, mi, fi] = float(e.var())
                    mean[li, mi, fi] = float(e.mean())
                    rate[li, mi, fi] = float((e != 0).mean())
    return {
        "variance": variance,
        "mean": mean,
        "error_rate": rate,
        "freqs_mhz": np.asarray(achieved),
        "locations": locations,
    }


class TestLegacyOracle:
    """The sharded engine against a replica of the harness loop it replaced."""

    def test_engine_matches_legacy_sweep(self):
        device = make_device(42)
        cfg = CharacterizationConfig(
            freqs_mhz=(270.0, 300.0, 330.0),
            n_samples=60,
            multiplicands=tuple(range(16)),
            n_locations=2,
        )
        legacy = _legacy_sweep(device, 8, 8, cfg, seed=42)
        engine = characterize_multiplier(device, 8, 8, cfg, seed=42)
        np.testing.assert_array_equal(engine.mean, legacy["mean"])
        np.testing.assert_array_equal(engine.error_rate, legacy["error_rate"])
        np.testing.assert_array_equal(engine.freqs_mhz, legacy["freqs_mhz"])
        assert engine.locations == legacy["locations"]
        # The engine's two-pass moment differs from ndarray.var in the last ulps.
        np.testing.assert_allclose(
            engine.variance, legacy["variance"], rtol=1e-9, atol=1e-9
        )
