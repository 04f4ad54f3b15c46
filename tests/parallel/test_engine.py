"""Tests for repro.parallel.engine — determinism across worker counts.

The headline property of the engine: the worker count is a pure
wall-clock knob.  ``jobs=4`` must reproduce the ``jobs=1`` grids bit for
bit, and a warm placed-design cache must not change a single number.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization import characterize_multiplier
from repro.config import ResilienceSettings
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import PlacedDesignCache, execute_shards
from repro.parallel.engine import _segment_statistics


def _grids_equal(a, b) -> bool:
    return (
        np.array_equal(a.variance, b.variance)
        and np.array_equal(a.mean, b.mean)
        and np.array_equal(a.error_rate, b.error_rate)
        and np.array_equal(a.freqs_mhz, b.freqs_mhz)
        and np.array_equal(a.multiplicands, b.multiplicands)
        and a.locations == b.locations
    )


class TestSegmentStatistics:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(0)
        n_segments, seg_len, n_f = 5, 9, 3
        n_tr = n_segments * seg_len - 1
        errors = rng.integers(-50, 50, size=(n_f, n_tr)).astype(np.int64)
        variance, mean, rate = _segment_statistics(errors, n_segments, seg_len)
        assert variance.shape == (n_segments, n_f)

        valid = np.ones(n_tr, dtype=bool)
        valid[np.arange(1, n_segments) * seg_len - 1] = False
        seg_of = np.arange(n_tr) // seg_len
        for fi in range(n_f):
            for ci in range(n_segments):
                e = errors[fi][valid & (seg_of == ci)]
                assert mean[ci, fi] == e.mean()
                assert rate[ci, fi] == (e != 0).mean()
                assert np.isclose(variance[ci, fi], e.var(), rtol=1e-12)

    def test_single_segment_has_no_boundary(self):
        errors = np.array([[1, -1, 0, 2]], dtype=np.int64)
        variance, mean, rate = _segment_statistics(errors, 1, 5)
        assert mean[0, 0] == 0.5
        assert rate[0, 0] == 0.75


class TestWorkerCountInvariance:
    @pytest.mark.slow
    def test_pool_matches_serial(self, device, small_char_config):
        cfg = small_char_config()
        serial = characterize_multiplier(device, 8, 8, cfg, seed=3, jobs=1)
        pooled = characterize_multiplier(device, 8, 8, cfg, seed=3, jobs=4)
        assert _grids_equal(serial, pooled)

    @pytest.mark.slow
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), chunk=st.sampled_from([3, 4, 8]))
    def test_sharding_never_perturbs_grids(self, device, small_char_config, seed, chunk):
        """Property: any (seed, shard shape) gives jobs-invariant grids."""
        cfg = small_char_config(n_mult=8, chunk=chunk)
        serial = characterize_multiplier(device, 8, 8, cfg, seed=seed, jobs=1)
        pooled = characterize_multiplier(device, 8, 8, cfg, seed=seed, jobs=4)
        assert _grids_equal(serial, pooled)

    def test_warm_cache_run_equals_cold(self, device, small_char_config):
        cfg = small_char_config()
        cache = PlacedDesignCache()
        cold = characterize_multiplier(device, 8, 8, cfg, seed=7, cache=cache)
        misses = cache.stats().misses
        assert misses > 0
        warm = characterize_multiplier(device, 8, 8, cfg, seed=7, cache=cache)
        stats = cache.stats()
        assert stats.misses == misses  # the rerun placed nothing anew
        assert stats.memory_hits > 0
        assert _grids_equal(cold, warm)

    def test_empty_shard_list(self, device):
        from repro.parallel import SweepPlan

        plan = SweepPlan(
            w_data=8,
            w_coeff=8,
            seed=0,
            freqs_mhz=(300.0,),
            achieved_mhz=(300.0,),
            n_samples=10,
            max_stream_depth=32768,
        )
        assert execute_shards(device, plan, [], jobs=4) == []


class TestPooledLatency:
    @pytest.mark.slow
    def test_each_attempt_records_its_own_run_time(self, device, small_char_config):
        """A pooled attempt's ``latency_s`` is its shard's run time.

        Both shards hang 0.3 s at once in two workers.  The parent harvests
        the futures in shard order, so its wait for the second one is near
        zero; only a time taken in the worker reads the hang.
        """
        plan = FaultPlan(specs=(FaultSpec(kind="hang", times=1, hang_s=0.3),), seed=0)
        result = characterize_multiplier(
            device, 8, 8, small_char_config(n_mult=4, chunk=4), seed=3, jobs=2,
            resilience=ResilienceSettings(backoff_base_s=0.0, backoff_jitter=0.0),
            faults=plan,
        )
        reports = result.outcome.reports
        assert len(reports) == 2
        for report in reports:
            [attempt] = report.attempts
            assert attempt.ok
            assert attempt.latency_s >= 0.3
