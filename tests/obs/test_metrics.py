"""Metrics registry: catalogue strictness, counters, snapshot determinism."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, load_metrics_snapshot
from repro.obs.spec import METRIC_CATALOG


class TestCatalogueStrictness:
    def test_unknown_metric_raises(self):
        with pytest.raises(ObservabilityError, match="not in the telemetry catalogue"):
            MetricsRegistry().counter("made.up")


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = MetricsRegistry().counter("gibbs.draws")
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
        a = self._populated(["gibbs.draws", "sweep.shards.total"])
        b = self._populated(["sweep.shards.total", "gibbs.draws"])
        assert a.snapshot().to_json() == b.snapshot().to_json()

    def test_snapshot_is_point_in_time(self):
        registry = self._populated(["gibbs.draws"])
        snap = registry.snapshot()
        registry.counter("gibbs.draws").add(10)
        assert snap.counters["gibbs.draws"] == 3

    def test_deterministic_counters_subset(self):
        registry = self._populated(["gibbs.draws"])
        registry.counter("cache.placed.hits").add(7)
        det = registry.snapshot().deterministic_counters()
        assert det == {"gibbs.draws": 3}

    def test_deterministic_flags_match_catalogue_intent(self):
        # Workload-pure counts are deterministic; per-process cache, plan,
        # synthesis and pool counts, and attempts (retries add some), are not.
        deterministic = {m.name for m in METRIC_CATALOG if m.deterministic}
        assert deterministic == {
            "characterize.sweeps",
            "gibbs.draws",
            "optimize.candidates",
            "optimize.dimensions",
            "sweep.shards.completed",
            "sweep.shards.quarantined",
            "sweep.shards.recovered",
            "sweep.shards.retried",
            "sweep.shards.total",
        }

    def test_write_and_load_round_trip(self, tmp_path):
        registry = self._populated(["gibbs.draws"])
        path = registry.snapshot().write(tmp_path / "m.json")
        payload = load_metrics_snapshot(path)
        assert payload == {"schema_version": 2, "counters": {"gibbs.draws": 3}}
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
        registry = self._populated(["gibbs.draws", "sweep.shards.total"])
        registry.reset()
        assert registry.snapshot().as_dict() == {"schema_version": 2, "counters": {}}
        registry.counter("gibbs.draws").add()
        assert registry.snapshot().counters == {"gibbs.draws": 1}

