"""Shared fixtures.

Heavy artefacts (device, placed multipliers, characterisation results)
are session-scoped: they are deterministic pure functions of their seeds,
so sharing them across tests changes nothing about isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.characterization import CharacterizationConfig, characterize_multiplier
from repro.fabric import DeviceFamily, make_device
from repro.models.error_model import ErrorModel, ErrorModelSet, build_error_model
from repro.netlist import unsigned_array_multiplier
from repro.parallel.cache import PlacedDesignCache, get_default_cache, set_default_cache
from repro.synthesis import SynthesisFlow

#: A small family keeps placement sweeps cheap while still leaving room
#: for every netlist the tests synthesise.
SMALL_FAMILY = DeviceFamily(name="test-family", rows=64, cols=64)


@pytest.fixture()
def cold_default_cache():
    """A fresh, empty process-wide placed-design cache for one test.

    The stages and in-process ``repro-flow`` calls place through the
    process-wide cache, so earlier tests may have warmed it; a test that
    counts placements starts from this one.  The previous cache is put
    back afterwards.
    """
    previous = get_default_cache()
    cache = PlacedDesignCache()
    set_default_cache(cache)
    yield cache
    set_default_cache(previous)


@pytest.fixture(scope="session")
def device():
    """One fabricated die, shared by the whole session."""
    return make_device(serial=1234, family=SMALL_FAMILY)


@pytest.fixture(scope="session")
def other_device():
    """A different die of the same family (for device-specific tests)."""
    return make_device(serial=5678, family=SMALL_FAMILY)


@pytest.fixture(scope="session")
def flow(device):
    return SynthesisFlow(device)


@pytest.fixture(scope="session")
def placed_mult8(flow):
    """An 8x8 unsigned multiplier placed at the origin."""
    return flow.run(unsigned_array_multiplier(8, 8), anchor=(0, 0), seed=0)


@pytest.fixture(scope="session")
def small_char_config():
    """Factory for a small characterisation sweep configuration.

    The shared shape for engine/faults tests: two frequencies, two
    locations, a handful of multiplicands — small enough that a full
    sweep (even with retries) stays in the tens of milliseconds.
    """

    def make(n_mult: int = 12, chunk: int = 4, n_samples: int = 40):
        return CharacterizationConfig(
            freqs_mhz=(280.0, 320.0),
            n_samples=n_samples,
            multiplicands=tuple(range(n_mult)),
            n_locations=2,
            segment_chunk=chunk,
        )

    return make


@pytest.fixture(scope="session")
def char_result(device):
    """A small but real characterisation sweep of a 9x4 multiplier."""
    cfg = CharacterizationConfig(
        freqs_mhz=(400.0, 450.0, 500.0, 550.0, 600.0),
        n_samples=160,
        multiplicands=None,
        n_locations=2,
    )
    return characterize_multiplier(device, 9, 4, cfg, seed=11)


@pytest.fixture(scope="session")
def error_model(char_result):
    return build_error_model(char_result)


def make_synthetic_error_model(
    w_coeff: int,
    w_data: int = 9,
    freqs=(250.0, 300.0, 350.0),
    serial: int = 0,
    onset_index: int = 1,
) -> ErrorModel:
    """A deterministic synthetic E(m, f): zero below onset, growing above.

    Variance grows with multiplicand popcount and with frequency — the two
    monotonicities the real characterisation exhibits.
    """
    mags = np.arange(1 << w_coeff)
    pop = np.array([bin(m).count("1") for m in mags], dtype=float)
    var = np.zeros((mags.size, len(freqs)))
    for fi in range(onset_index, len(freqs)):
        var[:, fi] = pop * (fi - onset_index + 1) * 100.0
    mean = np.zeros_like(var)
    return ErrorModel(
        w_data=w_data,
        w_coeff=w_coeff,
        device_serial=serial,
        multiplicands=mags,
        freqs_mhz=np.asarray(freqs, dtype=float),
        variance=var,
        mean=mean,
    )


@pytest.fixture(scope="session")
def synthetic_model_set():
    """Synthetic error models for word-lengths 3..9 (fast optimizer tests)."""
    return ErrorModelSet(
        {wl: make_synthetic_error_model(wl) for wl in range(3, 10)}
    )
