"""Telemetry must never change a number — on, off, or half-on."""

from __future__ import annotations

import numpy as np

from repro.characterization import characterize_multiplier
from repro.obs import runtime
from repro.parallel import PlacedDesignCache


def _grids_equal(a, b) -> bool:
    return (
        np.array_equal(a.variance, b.variance)
        and np.array_equal(a.mean, b.mean)
        and np.array_equal(a.error_rate, b.error_rate)
        and np.array_equal(a.freqs_mhz, b.freqs_mhz)
        and np.array_equal(a.multiplicands, b.multiplicands)
        and a.locations == b.locations
    )


class TestBitIdentity:
    def test_sweep_identical_with_telemetry_on_off_and_half_on(
        self, device, small_char_config
    ):
        cfg = small_char_config(n_mult=8, chunk=4)

        def sweep():
            # A cold cache per run: every placement is a synthesis miss.
            return characterize_multiplier(
                device, 8, 8, cfg, seed=5, cache=PlacedDesignCache()
            )

        baseline = sweep()
        with runtime.observability(trace=True, metrics=True) as observer:
            traced = sweep()
        with runtime.observability(trace=True, metrics=False):
            trace_only = sweep()
        with runtime.observability(trace=False, metrics=True):
            metrics_only = sweep()

        assert _grids_equal(baseline, traced)
        assert _grids_equal(baseline, trace_only)
        assert _grids_equal(baseline, metrics_only)

        # The enabled run actually recorded every stage of the sweep:
        # planning, execution, shards, their captures and the cache misses.
        names = {r.name for r in observer.tracer.records}
        assert {
            "characterize.sweep",
            "sweep.run",
            "sweep.shard",
            "capture.batch",
            "cache.synthesize",
        } <= names
        snapshot = observer.metrics.snapshot()
        counters = snapshot.counters
        assert counters["sweep.shards.total"] > 0
        assert counters["sweep.attempts.total"] == counters["sweep.shards.total"]
        assert counters["cache.placed.misses"] > 0
        assert counters["cache.placed.stores"] > 0
        assert snapshot.deterministic_counters()["characterize.sweeps"] == 1


class TestDisabledPath:
    def test_span_returns_the_shared_null_span(self):
        a = runtime.span("sweep.run", shards=3)
        b = runtime.span("optimize.run")
        assert a is b is runtime._NULL_SPAN
        with a as entered:
            assert entered.set(anything=1) is entered

    def test_disabled_helpers_touch_no_instruments(self):
        with runtime.span("sweep.shard", li=0, start=0, attempt=0):
            runtime.counter_add("gibbs.draws", 5)
        observer = runtime.get_observer()
        assert observer.tracer.records == ()
        assert observer.metrics.snapshot().as_dict() == {
            "schema_version": 2,
            "counters": {},
        }

    def test_disabled_span_skips_catalogue_validation(self):
        # The null span is shared and stateless; no name lookup happens,
        # which is what keeps the disabled path near-free.
        assert runtime.span("not.even.catalogued") is runtime._NULL_SPAN

    def test_enable_disable_round_trip(self):
        runtime.enable_observability()
        assert runtime.trace_enabled() and runtime.metrics_enabled()
        runtime.disable_observability()
        assert not runtime.get_observer().enabled
