"""Pool workers are traced, and the deterministic counters ignore worker count."""

from __future__ import annotations

import collections
import os

import pytest

from repro.characterization import characterize_multiplier
from repro.obs import runtime
from repro.parallel import PlacedDesignCache


def _traced_sweep(device, cfg, jobs):
    with runtime.observability() as observer:
        characterize_multiplier(
            device, 8, 8, cfg, seed=9, jobs=jobs, cache=PlacedDesignCache()
        )
    return observer


class TestJobsInvariance:
    @pytest.mark.slow
    def test_deterministic_counters_identical_across_jobs(
        self, device, small_char_config
    ):
        cfg = small_char_config(n_mult=8, chunk=4)
        serial_obs = _traced_sweep(device, cfg, jobs=1)
        pooled_obs = _traced_sweep(device, cfg, jobs=2)
        serial = serial_obs.metrics.snapshot().deterministic_counters()
        pooled = pooled_obs.metrics.snapshot().deterministic_counters()

        assert serial == pooled
        # And they describe a real sweep, not an empty registry.
        assert serial["characterization.harness.calls"] == 1
        assert serial["sweep.shards.total"] == serial["sweep.shards.completed"] > 0
        assert serial["sweep.shards.retried"] == 0
        assert serial["sweep.shards.quarantined"] == 0
        # Worker-side layers count in the parent too.
        assert serial["parallel.engine.calls"] == serial["sweep.shards.total"]
        assert serial["timing.simulator.node_transitions"] > 0

        # Pool workers are traced: the pooled run records the serial run's
        # shard-level spans, under the parent's sweep span, on the parent's
        # time origin, tagged with the worker's pid.
        def span_counts(observer):
            return collections.Counter(r.name for r in observer.tracer.records)

        for name in ("run_shard", "simulate_transitions", "capture_stream_batch"):
            assert span_counts(pooled_obs)[name] == span_counts(serial_obs)[name] > 0
        records = pooled_obs.tracer.records
        (sweep,) = [r for r in records if r.name == "run_sweep"]
        shards = [r for r in records if r.name == "run_shard"]
        assert {r.parent_id for r in shards} == {sweep.span_id}
        assert sweep.pid == os.getpid() not in {r.pid for r in shards}
        for shard in shards:
            assert sweep.start_s <= shard.start_s
            assert shard.start_s + shard.duration_s <= sweep.start_s + sweep.duration_s
        ids = [r.span_id for r in records]
        assert len(ids) == len(set(ids))

    def test_shard_counters_derive_from_the_outcome(self, device, small_char_config):
        """Counters mirror the SweepOutcome report exactly (parent-derived)."""
        cfg = small_char_config(n_mult=8, chunk=4)
        with runtime.observability(trace=False, metrics=True) as observer:
            result = characterize_multiplier(device, 8, 8, cfg, seed=9)
        counters = observer.metrics.snapshot().counters
        outcome = result.outcome
        assert counters["sweep.shards.total"] == len(outcome.reports)
        assert counters["sweep.attempts.total"] == outcome.total_attempts
        assert "sweep.pool.fallbacks" not in counters  # no pool, no fallback
