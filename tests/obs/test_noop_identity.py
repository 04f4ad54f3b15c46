"""Telemetry must never change a number — on, off, or half-on."""

from __future__ import annotations

import ast
import importlib
import multiprocessing
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.characterization.harness as harness
import repro.parallel.engine as engine
import repro.timing.simulator as simulator
from repro.characterization import characterize_multiplier
from repro.obs import ENTRIES, runtime
from repro.parallel import PlacedDesignCache

OBS_SOURCE = Path(runtime.__file__).parent


def _grids_equal(a, b) -> bool:
    return (
        np.array_equal(a.variance, b.variance)
        and np.array_equal(a.mean, b.mean)
        and np.array_equal(a.error_rate, b.error_rate)
        and np.array_equal(a.freqs_mhz, b.freqs_mhz)
        and np.array_equal(a.multiplicands, b.multiplicands)
        and a.locations == b.locations
    )


def _bindings():
    """Every entry point as its defining module or class holds it."""
    out = {}
    for entry in ENTRIES:
        owner = importlib.import_module(entry.module)
        *path, attr = entry.qualname.split(".")
        for name in path:
            owner = getattr(owner, name)
        out[(entry.module, entry.qualname)] = vars(owner)[attr]
    return out


def _wrapper_depths():
    """How many wrappers sit on each entry point in this process."""
    depths = {}
    for key, fn in _bindings().items():
        depths[key] = 0
        while hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
            depths[key] += 1
    return depths


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

        # The enabled run actually recorded every layer of the sweep:
        # planning, execution, shards, their captures and the cache misses.
        names = {r.name for r in observer.tracer.records}
        assert {
            "characterize_multiplier",
            "run_sweep",
            "run_shard",
            "simulate_transitions",
            "capture_stream_batch",
            "PlacedDesignCache.get_or_place",
            "SynthesisFlow.run",
        } <= names
        snapshot = observer.metrics.snapshot()
        counters = snapshot.counters
        assert counters["sweep.shards.total"] > 0
        assert counters["sweep.attempts.total"] == counters["sweep.shards.total"]
        assert counters["parallel.cache.calls"] == counters["sweep.shards.total"]
        assert counters["synthesis.flow.calls"] > 0
        assert snapshot.deterministic_counters()["characterization.harness.calls"] == 1


class TestDisabledPath:
    def test_disabled_helpers_touch_no_instruments(self, device, small_char_config):
        # Off, the library runs its own functions: nothing is wrapped and
        # a sweep leaves the observer empty.
        assert all(not hasattr(fn, "__wrapped__") for fn in _bindings().values())
        characterize_multiplier(device, 8, 8, small_char_config(), seed=5)
        observer = runtime.get_observer()
        assert observer.tracer.records == ()
        assert observer.metrics.snapshot().as_dict() == {
            "schema_version": 2,
            "counters": {},
        }

    def test_enable_disable_round_trip(self):
        originals = _bindings()
        runtime.enable_observability()
        assert runtime.get_observer().enabled
        wrapped = _bindings()
        for key, original in originals.items():
            assert wrapped[key].__wrapped__ is original, key
        runtime.disable_observability()
        assert not runtime.get_observer().enabled
        assert _bindings() == originals


class TestInstall:
    def test_imported_names_are_wrapped_and_restored(self):
        # `from .engine import run_sweep` in the harness is a binding of
        # its own: install wraps it there too, and uninstall restores it.
        original_sweep, original_shard = harness.run_sweep, engine.run_shard
        original_sim = simulator.simulate_transitions
        with runtime.observability():
            assert harness.run_sweep is engine.run_sweep is not original_sweep
            assert engine.run_shard.__wrapped__ is original_shard
            assert simulator.simulate_transitions.__wrapped__ is original_sim
        assert harness.run_sweep is engine.run_sweep is original_sweep
        assert engine.run_shard is original_shard
        assert simulator.simulate_transitions is original_sim

    def test_module_imported_while_installed_gets_the_original_back(
        self, monkeypatch
    ):
        # `from repro.timing.simulator import simulate_transitions` run while
        # the wrappers are in place binds a wrapper; uninstall restores it.
        original = simulator.simulate_transitions
        late = types.ModuleType("late_importer")
        monkeypatch.setitem(sys.modules, late.__name__, late)
        with runtime.observability():
            late.simulate_transitions = simulator.simulate_transitions
            assert late.simulate_transitions.__wrapped__ is original
        assert late.simulate_transitions is original

    def test_nested_enables_wrap_each_function_once(self):
        originals = _bindings()
        with runtime.observability():
            first = _bindings()
            with runtime.observability(trace=False):
                assert _bindings() == first
            runtime.install()
            assert _bindings() == first
            assert all(first[k].__wrapped__ is v for k, v in originals.items())
        assert _bindings() == originals

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_wrap_each_function_once(self, method):
        # A forked worker inherits the parent's wrappers and a spawned one
        # installs its own; either way every entry point is wrapped once.
        with runtime.observability():
            with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context(method),
                initializer=runtime.start_worker,
                initargs=(runtime.worker_settings(),),
            ) as pool:
                depths = pool.submit(_wrapper_depths).result(timeout=120)
        assert set(depths.values()) == {1}

    def test_obs_imports_no_traced_module(self):
        # Importing repro.obs must not load the library it wraps: the
        # traced modules load when the tracer is installed.
        traced = {entry.module for entry in ENTRIES}
        for path in sorted(OBS_SOURCE.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.level:
                    assert node.level == 1 or node.module == "errors", (
                        f"{path.name} imports ..{node.module}"
                    )
                elif isinstance(node, ast.Import):
                    assert not any(a.name in traced for a in node.names)
