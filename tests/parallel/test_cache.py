"""Tests for repro.parallel.cache — the placed-design cache."""

from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from repro.fabric import DeviceFamily, make_device
from repro.fabric.conditions import OperatingConditions
from repro.parallel.cache import (
    PlacedDesignCache,
    PlacedKey,
    get_default_cache,
    set_default_cache,
)
from repro.synthesis import SynthesisFlow
from repro.parallel.cache import multiplier_netlist


@pytest.fixture()
def cache():
    return PlacedDesignCache()


#: Baseline non-device arguments of ``PlacedKey.for_device`` and
#: ``get_or_place``; the device supplies the remaining key inputs.
_BASE = {"w_data": 6, "w_coeff": 6, "anchor": (0, 0), "seed": 0}


def _with_conditions(**changes):
    def vary(device, args):
        return device.with_conditions(replace(device.conditions, **changes)), args
    return vary


def _with_arg(name, value):
    def vary(device, args):
        return device, {**args, name: value}
    return vary


def _other_die(device, args):
    return make_device(device.serial + 1, family=device.family), args


def _other_family(device, args):
    family = DeviceFamily(name="other-family", rows=device.family.rows,
                          cols=device.family.cols)
    return make_device(device.serial, family=family), args


#: One case per key input: changing that input alone must re-key the entry.
_KEY_INPUT_CHANGES = {
    "serial": _other_die,
    "family": _other_family,
    "w_data": _with_arg("w_data", 5),
    "w_coeff": _with_arg("w_coeff", 5),
    "anchor": _with_arg("anchor", (2, 2)),
    "seed": _with_arg("seed", 1),
    "temperature_c": _with_conditions(temperature_c=85.0),
    "vdd": _with_conditions(vdd=1.1),
    "aging_years": _with_conditions(aging_years=5.0),
}


class TestPlacedKey:
    def test_cases_cover_every_key_field(self):
        assert set(_KEY_INPUT_CHANGES) == {f.name for f in fields(PlacedKey)}

    @pytest.mark.parametrize("field", sorted(_KEY_INPUT_CHANGES))
    def test_every_input_is_a_cache_miss(self, device, field, cache):
        varied_device, varied = _KEY_INPUT_CHANGES[field](device, _BASE)
        base_key = PlacedKey.for_device(device, **_BASE)
        varied_key = PlacedKey.for_device(varied_device, **varied)
        assert getattr(varied_key, field) != getattr(base_key, field)
        cache.get_or_place(device, **_BASE)
        cache.get_or_place(device, **_BASE)  # the same key is a hit
        cache.get_or_place(varied_device, **varied)  # the varied one may not be
        stats = cache.stats()
        assert (stats.memory_hits, stats.misses) == (1, 2)

    def test_includes_operating_conditions(self, device):
        hot = device.with_conditions(OperatingConditions(temperature_c=85.0))
        k_cold = PlacedKey.for_device(device, 8, 8, (0, 0), 0)
        k_hot = PlacedKey.for_device(hot, 8, 8, (0, 0), 0)
        assert k_cold != k_hot


class TestPlacedDesignCache:
    def test_miss_then_memory_hit(self, device, cache):
        p1 = cache.get_or_place(device, 8, 8, (0, 0), 0)
        p2 = cache.get_or_place(device, 8, 8, (0, 0), 0)
        assert p1 is p2
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.memory_hits == 1
        assert stats.stores == 1

    def test_matches_direct_synthesis(self, device, cache):
        placed = cache.get_or_place(device, 8, 8, (2, 2), 5)
        direct = SynthesisFlow(device).run(
            multiplier_netlist(8, 8), anchor=(2, 2), seed=5, lint=False
        )
        assert np.array_equal(placed.node_delay, direct.node_delay)
        assert np.array_equal(placed.edge_delay, direct.edge_delay)
        assert placed.setup_ns == direct.setup_ns

    def test_distinct_keys_do_not_alias(self, device, cache):
        a = cache.get_or_place(device, 8, 8, (0, 0), 0)
        b = cache.get_or_place(device, 8, 8, (4, 4), 0)
        c = cache.get_or_place(device, 8, 8, (0, 0), 1)
        assert cache.stats().misses == 3
        assert not np.array_equal(a.node_delay, b.node_delay)
        assert a is not c

    def test_conditions_do_not_alias(self, device, cache):
        cold = cache.get_or_place(device, 8, 8, (0, 0), 0)
        hot_dev = device.with_conditions(OperatingConditions(temperature_c=85.0))
        hot = cache.get_or_place(hot_dev, 8, 8, (0, 0), 0)
        assert cache.stats().misses == 2
        assert not np.array_equal(cold.node_delay, hot.node_delay)


class TestStats:
    def test_stats_dict_shape(self, device, cache):
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        assert asdict(cache.stats()) == {
            "memory_hits": 1,
            "misses": 1,
            "stores": 1,
            "memory_entries": 1,
            "disk_hits": 0,  # no disk tier; kept for the benchmark's tracer
        }

    def test_memory_only_cache_has_no_disk(self, device, cache, tmp_path, monkeypatch):
        # Placing writes no file anywhere: the cache lives in memory.
        monkeypatch.chdir(tmp_path)
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        assert list(tmp_path.iterdir()) == []
        assert not hasattr(cache, "directory")


class TestDefaultCache:
    def test_default_is_memory_only(self):
        # One lazily created process-wide cache; None resets it.
        previous = get_default_cache()
        set_default_cache(None)
        try:
            fresh = get_default_cache()
            assert fresh is not previous
            assert fresh is get_default_cache()
            assert fresh.stats().memory_entries == 0
        finally:
            set_default_cache(previous)
