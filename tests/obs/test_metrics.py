"""Metrics registry: entry-table strictness, counters, snapshot determinism."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import DETERMINISTIC_COUNTERS, MetricsRegistry, load_metrics_snapshot


class TestCatalogueStrictness:
    def test_unknown_metric_raises(self):
        with pytest.raises(ObservabilityError, match="not in the telemetry entry table"):
            MetricsRegistry().counter("made.up")


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = MetricsRegistry().counter("core.bayesian.draws")
        counter.add()
        counter.add(4)
        assert counter.value == 5
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            counter.add(-1)


class TestSnapshot:
    def _populated(self, order):
        registry = MetricsRegistry()
        for name in order:
            registry.counter(name).add(3)
        return registry

    def test_creation_order_does_not_change_serialisation(self):
        a = self._populated(["core.bayesian.draws", "sweep.shards.total"])
        b = self._populated(["sweep.shards.total", "core.bayesian.draws"])
        assert a.snapshot().to_json() == b.snapshot().to_json()

    def test_snapshot_is_point_in_time(self):
        registry = self._populated(["core.bayesian.draws"])
        snap = registry.snapshot()
        registry.counter("core.bayesian.draws").add(10)
        assert snap.counters["core.bayesian.draws"] == 3

    def test_deterministic_counters_subset(self):
        registry = self._populated(["core.bayesian.draws"])
        registry.counter("parallel.cache.hits").add(7)
        det = registry.snapshot().deterministic_counters()
        assert det == {"core.bayesian.draws": 3}

    def test_deterministic_flags_match_catalogue_intent(self):
        # Workload-pure counts are deterministic; per-process cache, plan,
        # synthesis, lint and pool counts, and attempts (retries add
        # some), are not.
        assert DETERMINISTIC_COUNTERS == {
            "analysis.sanitizer.calls",
            "characterization.harness.calls",
            "circuits.datapath.calls",
            "circuits.executor.calls",
            "core.bayesian.calls",
            "core.bayesian.draws",
            "core.bayesian.iterations",
            "core.optimizer.calls",
            "core.optimizer.candidates",
            "core.optimizer.dimensions",
            "framework.calls",
            "kernels.execute.calls",
            "kernels.plan.calls",
            "models.area_model.calls",
            "models.error_model.calls",
            "parallel.cache.calls",
            "parallel.engine.calls",
            "parallel.engine.retries",
            "sweep.calls",
            "sweep.shards.completed",
            "sweep.shards.quarantined",
            "sweep.shards.recovered",
            "sweep.shards.retried",
            "sweep.shards.total",
            "timing.capture.calls",
            "timing.capture.captured_cycles",
            "timing.simulator.calls",
            "timing.simulator.node_transitions",
        }

    def test_write_and_load_round_trip(self, tmp_path):
        registry = self._populated(["core.bayesian.draws"])
        path = registry.snapshot().write(tmp_path / "m.json")
        payload = load_metrics_snapshot(path)
        assert payload == {"schema_version": 2, "counters": {"core.bayesian.draws": 3}}
        assert payload == json.loads(registry.snapshot().to_json())

    def test_load_rejects_non_snapshots(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read metrics"):
            load_metrics_snapshot(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        with pytest.raises(ObservabilityError, match="not a metrics snapshot"):
            load_metrics_snapshot(bad)
        bad.write_text('{"no": "counters"}')
        with pytest.raises(ObservabilityError, match="not a metrics snapshot"):
            load_metrics_snapshot(bad)

    def test_reset_clears_instruments_and_profiles(self):
        registry = self._populated(["core.bayesian.draws", "sweep.shards.total"])
        registry.reset()
        assert registry.snapshot().as_dict() == {"schema_version": 2, "counters": {}}
        registry.counter("core.bayesian.draws").add()
        assert registry.snapshot().counters == {"core.bayesian.draws": 1}

