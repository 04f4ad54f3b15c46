"""Tests for repro.parallel.cache — the placed-design cache."""

from dataclasses import fields, replace

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
def cache(tmp_path):
    return PlacedDesignCache(tmp_path / "placed")


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
    def test_every_input_changes_the_digest(self, device, field):
        varied_device, varied = _KEY_INPUT_CHANGES[field](device, _BASE)
        base_key = PlacedKey.for_device(device, **_BASE)
        varied_key = PlacedKey.for_device(varied_device, **varied)
        assert getattr(varied_key, field) != getattr(base_key, field)
        assert varied_key.digest() != base_key.digest()

    @pytest.mark.parametrize("field", sorted(_KEY_INPUT_CHANGES))
    def test_every_input_is_a_cache_miss(self, device, field, tmp_path):
        varied_device, varied = _KEY_INPUT_CHANGES[field](device, _BASE)
        directory = tmp_path / "placed"
        PlacedDesignCache(directory).get_or_place(device, **_BASE)
        cache = PlacedDesignCache(directory)
        cache.get_or_place(device, **_BASE)  # served from disk
        cache.get_or_place(varied_device, **varied)  # neither tier may serve it
        stats = cache.stats()
        assert (stats.disk_hits, stats.memory_hits, stats.misses) == (1, 0, 1)

    def test_includes_operating_conditions(self, device):
        hot = device.with_conditions(OperatingConditions(temperature_c=85.0))
        k_cold = PlacedKey.for_device(device, 8, 8, (0, 0), 0)
        k_hot = PlacedKey.for_device(hot, 8, 8, (0, 0), 0)
        assert k_cold != k_hot
        assert k_cold.digest() != k_hot.digest()

    def test_digest_stable(self, device):
        a = PlacedKey.for_device(device, 8, 8, (3, 4), 7)
        b = PlacedKey.for_device(device, 8, 8, (3, 4), 7)
        assert a.digest() == b.digest()


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

    def test_disk_round_trip(self, device, tmp_path):
        directory = tmp_path / "placed"
        first = PlacedDesignCache(directory)
        p1 = first.get_or_place(device, 8, 8, (1, 1), 3)
        # A fresh instance has an empty memory map: must load from disk.
        second = PlacedDesignCache(directory)
        p2 = second.get_or_place(device, 8, 8, (1, 1), 3)
        assert second.stats().disk_hits == 1
        assert np.array_equal(p1.node_delay, p2.node_delay)
        assert np.array_equal(p1.edge_delay, p2.edge_delay)

    def test_distinct_keys_do_not_alias(self, device, cache):
        a = cache.get_or_place(device, 8, 8, (0, 0), 0)
        b = cache.get_or_place(device, 8, 8, (4, 4), 0)
        c = cache.get_or_place(device, 8, 8, (0, 0), 1)
        assert cache.stats().misses == 3
        assert not np.array_equal(a.node_delay, b.node_delay)
        assert a is not c

    def test_conditions_do_not_alias(self, device, tmp_path):
        cache = PlacedDesignCache(tmp_path / "placed")
        cold = cache.get_or_place(device, 8, 8, (0, 0), 0)
        hot_dev = device.with_conditions(OperatingConditions(temperature_c=85.0))
        hot = cache.get_or_place(hot_dev, 8, 8, (0, 0), 0)
        assert cache.stats().misses == 2
        assert not np.array_equal(cold.node_delay, hot.node_delay)

    def test_corrupt_disk_entry_is_a_miss(self, device, tmp_path):
        directory = tmp_path / "placed"
        first = PlacedDesignCache(directory)
        first.get_or_place(device, 8, 8, (0, 0), 0)
        (entry,) = first.disk_entries()
        entry.write_bytes(b"not a pickle")
        second = PlacedDesignCache(directory)
        second.get_or_place(device, 8, 8, (0, 0), 0)
        assert second.stats().misses == 1  # fell back to synthesis


def _write_one_entry(device, directory):
    """Synthesise one placement into a fresh disk cache; returns its path."""
    cache = PlacedDesignCache(directory)
    placed = cache.get_or_place(device, 8, 8, (0, 0), 0)
    (entry,) = cache.disk_entries()
    return placed, entry


class TestCorruptionRecovery:
    """Damaged disk entries must rebuild transparently — and loudly.

    Every flavour of damage follows the same contract: the load is
    *rejected* (not trusted by luck), a warning is logged, the
    ``corruptions`` counter ticks, the entry is removed, and the miss
    path rebuilds it bit-identically (the build is pure in the key).
    """

    def _assert_rebuilt(self, device, directory, placed, caplog):
        import logging

        fresh = PlacedDesignCache(directory)
        with caplog.at_level(logging.WARNING, logger="repro.parallel.cache"):
            rebuilt = fresh.get_or_place(device, 8, 8, (0, 0), 0)
        stats = fresh.stats()
        assert stats.corruptions == 1
        assert stats.misses == 1 and stats.disk_hits == 0
        assert any("rebuilding from synthesis" in r.message for r in caplog.records)
        assert np.array_equal(rebuilt.node_delay, placed.node_delay)
        assert np.array_equal(rebuilt.edge_delay, placed.edge_delay)
        # The rebuild re-stored a valid entry: the next instance hits disk.
        after = PlacedDesignCache(directory)
        after.get_or_place(device, 8, 8, (0, 0), 0)
        assert after.stats().disk_hits == 1
        assert after.stats().corruptions == 0

    def test_truncated_pickle_rebuilds(self, device, tmp_path, caplog):
        placed, entry = _write_one_entry(device, tmp_path / "placed")
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 3])
        self._assert_rebuilt(device, tmp_path / "placed", placed, caplog)

    def test_checksum_mismatch_rebuilds(self, device, tmp_path, caplog):
        placed, entry = _write_one_entry(device, tmp_path / "placed")
        raw = bytearray(entry.read_bytes())
        raw[-100] ^= 0xFF  # flip a byte deep in the pickled design blob
        entry.write_bytes(bytes(raw))
        self._assert_rebuilt(device, tmp_path / "placed", placed, caplog)

    def test_torn_concurrent_write_rebuilds(self, device, tmp_path, caplog):
        # A torn file from a crashed concurrent writer: the head of one
        # valid entry spliced onto the tail of another write.
        placed, entry = _write_one_entry(device, tmp_path / "placed")
        raw = entry.read_bytes()
        entry.write_bytes(raw[: len(raw) // 2] + raw[: len(raw) // 2])
        self._assert_rebuilt(device, tmp_path / "placed", placed, caplog)

    def test_stale_version_rebuilds(self, device, tmp_path, caplog):
        import pickle

        placed, entry = _write_one_entry(device, tmp_path / "placed")
        entry.write_bytes(pickle.dumps({"version": 1, "placed": placed}))
        self._assert_rebuilt(device, tmp_path / "placed", placed, caplog)

    def test_damaged_entry_is_removed_from_disk(self, device, tmp_path):
        placed, entry = _write_one_entry(device, tmp_path / "placed")
        entry.write_bytes(b"garbage")
        fresh = PlacedDesignCache(tmp_path / "placed")
        fresh.get_or_place(device, 8, 8, (0, 0), 0)
        # Exactly one (valid, re-stored) entry remains — the damaged file
        # was unlinked before the rebuild wrote its replacement.
        (remaining,) = fresh.disk_entries()
        assert remaining == entry
        assert fresh.stats().corruptions == 1

    def test_corruptions_counter_in_stats_dict(self, device, cache):
        assert cache.stats().as_dict()["corruptions"] == 0

    def test_clear_removes_everything(self, device, cache):
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        assert cache.clear(disk=True) == 1
        stats = cache.stats()
        assert stats.memory_entries == 0
        assert stats.disk_entries == 0

    def test_stats_dict_shape(self, device, cache):
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        d = cache.stats().as_dict()
        for key in ("memory_hits", "disk_hits", "misses", "stores",
                    "disk_entries", "disk_bytes", "hit_rate", "directory"):
            assert key in d
        assert cache.stats().hit_rate == 0.0
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        assert cache.stats().hit_rate == 0.5

    def test_memory_only_cache_has_no_disk(self, device):
        cache = PlacedDesignCache()
        cache.get_or_place(device, 8, 8, (0, 0), 0)
        assert cache.disk_entries() == []
        assert cache.stats().directory is None


class TestDefaultCache:
    def test_env_configures_directory(self, monkeypatch, tmp_path):
        set_default_cache(None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        try:
            assert get_default_cache().directory == tmp_path / "env-cache"
        finally:
            set_default_cache(None)

    def test_default_is_memory_only(self, monkeypatch):
        set_default_cache(None)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        try:
            assert get_default_cache().directory is None
        finally:
            set_default_cache(None)
