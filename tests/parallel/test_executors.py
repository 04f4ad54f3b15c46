"""The sweep's two execution paths: inline and process pool.

``jobs`` alone picks the path.  The first attempt of every shard runs on
the process pool when ``jobs > 1`` and the sweep has more than one shard;
otherwise it runs inline.  Either way the shards handed to the engine
and the grids it returns are byte-identical: the path is a pure
wall-clock choice.
"""

import dataclasses

import numpy as np
import pytest

from repro.characterization import characterize_multiplier, harness
from repro.errors import ConfigError
from repro.parallel import engine
from repro.parallel.jobs import REPRO_JOBS_ENV


def _grid_bytes(result):
    return (
        result.variance.tobytes()
        + result.mean.tobytes()
        + result.error_rate.tobytes()
    )


def _descriptor_blob(plan, shards):
    """Every byte that defines the sweep's work, in shard order."""
    parts = [repr(plan).encode("utf-8")]
    for shard in shards:
        parts.append(repr((shard.li, shard.location, shard.start)).encode("utf-8"))
        parts.append(shard.multiplicands.tobytes())
        parts.append(shard.stimulus.tobytes())
    return b"".join(parts)


@pytest.fixture()
def pool_passes(monkeypatch):
    """Worker counts of the pool passes the engine starts.

    The pass itself is skipped, so every first attempt falls through to
    the inline loop, as it does after an abandoned pool.
    """
    calls = []

    def record(device, plan, shards, jobs, *args):
        calls.append(jobs)

    monkeypatch.setattr(engine, "_pool_pass", record)
    return calls


@pytest.fixture()
def pool_runs(monkeypatch):
    """Worker counts of the pool passes the engine starts and runs."""
    calls = []
    pool_pass = engine._pool_pass

    def record(device, plan, shards, jobs, *args):
        calls.append(jobs)
        return pool_pass(device, plan, shards, jobs, *args)

    monkeypatch.setattr(engine, "_pool_pass", record)
    return calls


@pytest.fixture()
def planned_sweeps(monkeypatch):
    """Descriptor blobs of every sweep the harness hands to the engine."""
    blobs = []
    run_sweep = harness.run_sweep

    def record(device, plan, shards, **kwargs):
        blobs.append(_descriptor_blob(plan, shards))
        return run_sweep(device, plan, shards, **kwargs)

    monkeypatch.setattr(harness, "run_sweep", record)
    return blobs


class TestResolveExecutor:
    def test_default_is_pool(self, device, small_char_config, pool_passes, monkeypatch):
        monkeypatch.delenv(REPRO_JOBS_ENV, raising=False)
        cfg = small_char_config()
        characterize_multiplier(device, 8, 8, cfg, seed=3, jobs=2)
        assert pool_passes == [2]
        # One shard leaves nothing to spread over workers: inline.
        one_shard = dataclasses.replace(
            cfg, multiplicands=cfg.multiplicands[:4], n_locations=1
        )
        characterize_multiplier(device, 8, 8, one_shard, seed=3, jobs=2)
        assert pool_passes == [2]

    def test_env_names_the_default(
        self, device, small_char_config, pool_passes, monkeypatch
    ):
        cfg = small_char_config()
        monkeypatch.delenv(REPRO_JOBS_ENV, raising=False)
        characterize_multiplier(device, 8, 8, cfg, seed=3)
        assert pool_passes == []
        monkeypatch.setenv(REPRO_JOBS_ENV, "3")
        characterize_multiplier(device, 8, 8, cfg, seed=3)
        assert pool_passes == [3]
        # An explicit count still wins over the environment.
        characterize_multiplier(device, 8, 8, cfg, seed=3, jobs=1)
        assert pool_passes == [3]

    def test_unknown_name_is_a_config_error(
        self, device, small_char_config, pool_passes, monkeypatch
    ):
        monkeypatch.setenv(REPRO_JOBS_ENV, "pool")
        with pytest.raises(ConfigError, match="is not an integer"):
            characterize_multiplier(device, 8, 8, small_char_config(), seed=3)
        assert pool_passes == []


class TestDescriptorByteStability:
    """One plan, one descriptor byte stream, whichever path runs it."""

    def test_replanning_is_byte_stable(self, device, small_char_config, planned_sweeps):
        cfg = small_char_config()
        characterize_multiplier(device, 8, 8, cfg, seed=11, jobs=1)
        characterize_multiplier(device, 8, 8, cfg, seed=11, jobs=1)
        first, second = planned_sweeps
        assert first == second
        characterize_multiplier(device, 8, 8, cfg, seed=12, jobs=1)
        assert planned_sweeps[2] != first

    def test_descriptors_identical_under_every_executor(
        self, device, small_char_config, planned_sweeps, pool_runs
    ):
        cfg = small_char_config()
        for jobs in (1, 2):
            characterize_multiplier(device, 8, 8, cfg, seed=11, jobs=jobs)
        assert pool_runs == [2]
        inline, pooled = planned_sweeps
        assert inline == pooled


class TestExecutorByteIdentity:
    def test_all_executors_reproduce_serial_grids(
        self, device, small_char_config, pool_runs
    ):
        cfg = small_char_config()
        reference = characterize_multiplier(device, 8, 8, cfg, seed=3, jobs=1)
        pooled = characterize_multiplier(device, 8, 8, cfg, seed=3, jobs=2)
        assert pool_runs == [2]
        assert _grid_bytes(pooled) == _grid_bytes(reference)
        assert np.array_equal(pooled.freqs_mhz, reference.freqs_mhz)
        assert pooled.outcome.fallback_inline is False

    def test_worker_count_never_changes_bytes(
        self, device, small_char_config, pool_runs
    ):
        cfg = small_char_config()
        two = characterize_multiplier(device, 8, 8, cfg, seed=9, jobs=2)
        four = characterize_multiplier(device, 8, 8, cfg, seed=9, jobs=4)
        assert pool_runs == [2, 4]
        assert _grid_bytes(two) == _grid_bytes(four)
