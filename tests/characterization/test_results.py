"""Tests for repro.characterization.results — containers and persistence."""

import numpy as np
import pytest

from repro.characterization.results import CharacterizationResult
from repro.errors import CharacterizationError


def _small_result():
    return CharacterizationResult(
        w_data=8,
        w_coeff=2,
        device_serial=9,
        freqs_mhz=np.array([300.0, 350.0]),
        multiplicands=np.array([0, 1, 2, 3]),
        locations=((0, 0), (10, 10)),
        variance=np.arange(16, dtype=float).reshape(2, 4, 2),
        mean=np.zeros((2, 4, 2)),
        error_rate=np.zeros((2, 4, 2)),
        n_samples=100,
    )


class TestContainer:
    def test_shape_validation(self):
        with pytest.raises(CharacterizationError):
            CharacterizationResult(
                w_data=8,
                w_coeff=2,
                device_serial=9,
                freqs_mhz=np.array([300.0]),
                multiplicands=np.array([0, 1]),
                locations=((0, 0),),
                variance=np.zeros((1, 3, 1)),  # wrong M
                mean=np.zeros((1, 2, 1)),
                error_rate=np.zeros((1, 2, 1)),
                n_samples=10,
            )

    def test_variance_grid_pools_locations(self):
        r = _small_result()
        pooled = r.variance_grid(None)
        assert pooled.shape == (4, 2)
        assert np.allclose(pooled, r.variance.mean(axis=0))

    def test_variance_grid_specific_location(self):
        r = _small_result()
        assert np.array_equal(r.variance_grid((10, 10)), r.variance[1])

    def test_unknown_location_rejected(self):
        with pytest.raises(CharacterizationError):
            _small_result().variance_grid((5, 5))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        r = _small_result()
        path = tmp_path / "char.npz"
        r.save(path)
        loaded = CharacterizationResult.load(path)
        assert loaded.w_data == r.w_data
        assert loaded.device_serial == r.device_serial
        assert loaded.locations == r.locations
        assert np.array_equal(loaded.variance, r.variance)
        assert np.array_equal(loaded.freqs_mhz, r.freqs_mhz)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CharacterizationError):
            CharacterizationResult.load(tmp_path / "nope.npz")

    def test_real_result_roundtrip(self, char_result, tmp_path):
        path = tmp_path / "real.npz"
        char_result.save(path)
        loaded = CharacterizationResult.load(path)
        assert np.array_equal(loaded.variance, char_result.variance)
        assert loaded.n_samples == char_result.n_samples
