"""Tests for repro.fabric.variation."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fabric import make_device
from repro.fabric.variation import (
    VariationConfig,
    _gaussian_filter,
    generate_variation_field,
)


def _field(rows=48, cols=48, seed=0, **kw):
    return generate_variation_field(
        rows, cols, VariationConfig(**kw), np.random.default_rng(seed)
    )


def _sha16(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


class TestGeneration:
    def test_shape(self):
        f = _field(32, 40)
        assert f.shape == (32, 40)

    def test_centered_near_one(self):
        f = _field()
        assert abs(f.factors.mean() - 1.0) < 0.02

    def test_deterministic_per_seed(self):
        assert np.array_equal(_field(seed=3).factors, _field(seed=3).factors)

    def test_different_seeds_differ(self):
        assert not np.array_equal(_field(seed=3).factors, _field(seed=4).factors)

    def test_floor_clip(self):
        f = _field(white_sigma=0.4, systematic_amplitude=0.5, correlated_sigma=0.4)
        assert f.factors.min() >= 0.5

    def test_zero_config_gives_flat_field(self):
        f = _field(systematic_amplitude=0.0, correlated_sigma=0.0, white_sigma=0.0)
        assert np.allclose(f.factors, 1.0)

    def test_systematic_creates_spatial_trend(self):
        f = _field(systematic_amplitude=0.1, correlated_sigma=0.0, white_sigma=0.0)
        # A smooth polynomial surface: neighbouring LEs nearly equal.
        diffs = np.abs(np.diff(f.factors, axis=0))
        assert diffs.max() < 0.02

    def test_white_noise_is_rough(self):
        f = _field(systematic_amplitude=0.0, correlated_sigma=0.0, white_sigma=0.05)
        diffs = np.abs(np.diff(f.factors, axis=0))
        assert diffs.mean() > 0.02

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigError):
            generate_variation_field(0, 5, VariationConfig(), np.random.default_rng(0))


class TestConfigValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            VariationConfig(systematic_amplitude=-0.1)

    def test_zero_correlation_length_rejected(self):
        with pytest.raises(ConfigError):
            VariationConfig(correlation_length=0.0)

    def test_zero_order_rejected(self):
        with pytest.raises(ConfigError):
            VariationConfig(polynomial_order=0)


class TestFieldQueries:
    def test_factor_at_matches_array(self):
        f = _field()
        assert f.factor_at(5, 7) == f.factors[7, 5]

    def test_window_extracts_region(self):
        f = _field()
        w = f.window(4, 6, 10, 8)
        assert w.shape == (8, 10)
        assert np.array_equal(w, f.factors[6:14, 4:14])

    def test_window_out_of_bounds_rejected(self):
        f = _field(16, 16)
        with pytest.raises(ConfigError):
            f.window(10, 10, 10, 10)

    def test_summary_keys(self):
        s = _field().summary()
        assert {"mean", "std", "min", "max", "corner_to_corner"} <= set(s)
        assert s["min"] <= s["mean"] <= s["max"]


class TestPinnedFields:
    """Field bytes recorded while ``scipy.ndimage.gaussian_filter`` still
    smoothed the correlated component; the NumPy filter must repeat them."""

    @pytest.mark.parametrize(
        "serial, digest",
        [
            (0, "cc11ef4a0aeeefd5"),
            (7, "9326983f8b9539d5"),
            (42, "cccea4bef3efd807"),
            (1234, "150aa4fda1be4d4f"),
        ],
    )
    def test_device_field_bytes(self, serial, digest):
        assert _sha16(make_device(serial).variation.factors) == digest

    # 1x1 zeroes the correlated part, so its digest ignores the length;
    # 3x4 at lengths 2.5 and 8.0 has a kernel radius past both axes.
    @pytest.mark.parametrize(
        "shape, length, digest",
        [
            ((1, 1), 0.5, "e827a4c403215f11"),
            ((1, 1), 2.5, "e827a4c403215f11"),
            ((1, 1), 8.0, "e827a4c403215f11"),
            ((1, 7), 0.5, "300dc170fce2680d"),
            ((1, 7), 2.5, "3797061bccf1edbd"),
            ((1, 7), 8.0, "b7fb79b106d916ba"),
            ((5, 1), 0.5, "8ea7c1617a39f178"),
            ((5, 1), 2.5, "7cea06687d82c9e6"),
            ((5, 1), 8.0, "0e73f3b55f9a9b80"),
            ((3, 4), 0.5, "fc064591e49c9f57"),
            ((3, 4), 2.5, "47b5f11e98dde543"),
            ((3, 4), 8.0, "c096348e916082c2"),
            ((120, 128), 0.5, "c5fc98e54d890cb3"),
            ((120, 128), 2.5, "3faf8b37caab142d"),
            ((120, 128), 8.0, "628c1ac7279b7ffd"),
        ],
    )
    def test_edge_shape_field_bytes(self, shape, length, digest):
        field = generate_variation_field(
            *shape, VariationConfig(correlation_length=length), np.random.default_rng(2014)
        )
        assert _sha16(field.factors) == digest

    # The smoothed noise itself, before the field's scaling and sum can
    # round a last-bit difference away.
    @pytest.mark.parametrize(
        "shape, sigma, digest",
        [
            ((1, 1), 0.5, "270d596c41eaa6b2"),
            ((1, 1), 2.5, "858d9662b56d6523"),
            ((1, 1), 8.0, "54ec341d45e0a1ea"),
            ((1, 7), 0.5, "43e7953a585733bc"),
            ((1, 7), 2.5, "cf6becf1ad4f7318"),
            ((1, 7), 8.0, "00918137e6a0fd9c"),
            ((5, 1), 0.5, "3200c42d8ecaa7f7"),
            ((5, 1), 2.5, "d7ef488ac1c061f2"),
            ((5, 1), 8.0, "0d33459db3e1d162"),
            ((3, 4), 0.5, "d1b8322a8c313c5d"),
            ((3, 4), 2.5, "be7360afd41000f6"),
            ((3, 4), 8.0, "edd4b5e8777cd1e4"),
            ((120, 128), 0.5, "7c9490ea27d78648"),
            ((120, 128), 2.5, "8b11406de7032d40"),
            ((120, 128), 8.0, "65861e804511a9bf"),
        ],
    )
    def test_smoothing_bytes(self, shape, sigma, digest):
        out = _gaussian_filter(np.random.default_rng(2014).normal(size=shape), sigma)
        assert out.flags.c_contiguous
        assert _sha16(out) == digest
