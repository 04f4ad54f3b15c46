"""CLI surfaces: ``repro obs ...`` and ``repro-flow --trace/--metrics``."""

from __future__ import annotations

import json
import time

import pytest

from repro.characterization import characterize_multiplier
from repro.cli import main as experiment_main
from repro.cli_flow import main as flow_main, resolve_telemetry_paths
from repro.obs import (
    COUNTERS,
    ENTRIES,
    Tracer,
    load_metrics_snapshot,
    load_trace_jsonl,
    runtime,
    telemetry_reference_markdown,
)
from repro.parallel import PlacedDesignCache


@pytest.fixture()
def trace_file(tmp_path):
    tracer = Tracer()
    run = tracer.start("run_sweep", "sweep")
    tracer.finish(tracer.start("run_shard", "parallel.engine"), {"retries": 1})
    tracer.finish(run, {"shards.total": 1})
    return tracer.export_jsonl(tmp_path / "run.jsonl")


@pytest.fixture(scope="module")
def recorded_sweep(tmp_path_factory, device, small_char_config):
    """A traced inline sweep: its JSONL sidecar, wall time and counters."""
    base = tmp_path_factory.mktemp("recorded") / "sweep"
    with runtime.observability() as observer:
        t0 = time.perf_counter()
        characterize_multiplier(
            device, 8, 8, small_char_config(), seed=4, jobs=1,
            cache=PlacedDesignCache(),
        )
        wall_s = time.perf_counter() - t0
        jsonl, _ = runtime.export_trace_files(base)
    return jsonl, wall_s, observer.metrics.snapshot().counters


class TestObsSubcommand:
    def test_reference_prints_the_full_catalogue(self, capsys):
        assert experiment_main(["obs", "reference"]) == 0
        out = capsys.readouterr().out
        assert telemetry_reference_markdown() in out
        for name in sorted({e.qualname for e in ENTRIES} | COUNTERS):
            assert f"`{name}`" in out

    def test_trace_summary_text(self, trace_file, capsys):
        assert experiment_main(["obs", "trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "self s" in out
        assert "sweep" in out and "parallel.engine" in out and "retries=1" in out

    def test_trace_summary_json(self, trace_file, capsys):
        assert experiment_main(
            ["obs", "trace", str(trace_file), "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["layer"] for r in rows} == {"sweep", "parallel.engine"}
        assert all(r["calls"] == 1 for r in rows)
        assert {r["layer"]: r["work"] for r in rows} == {
            "sweep": {"shards.total": 1},
            "parallel.engine": {"retries": 1},
        }

    def test_trace_self_times_fit_in_the_traced_wall_time(
        self, recorded_sweep, capsys
    ):
        jsonl, wall_s, _ = recorded_sweep
        assert experiment_main(["obs", "trace", str(jsonl), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {"characterization.harness", "timing.simulator"} <= {
            r["layer"] for r in rows
        }
        assert all(r["self_s"] >= 0 for r in rows)
        assert sum(r["self_s"] for r in rows) <= wall_s

    def test_trace_work_counts_sum_over_the_layer_spans(self, recorded_sweep, capsys):
        jsonl, _, counters = recorded_sweep
        assert experiment_main(["obs", "trace", str(jsonl), "--format", "json"]) == 0
        (sim,) = [
            r for r in json.loads(capsys.readouterr().out)
            if r["layer"] == "timing.simulator"
        ]
        spans = [r for r in load_trace_jsonl(jsonl) if r["name"] == "simulate_transitions"]
        assert sim["calls"] == len(spans) == counters["timing.simulator.calls"]
        assert (
            sim["work"]["node_transitions"]
            == sum(r["attrs"]["node_transitions"] for r in spans)
            == counters["timing.simulator.node_transitions"]
            > 0
        )

    def test_metrics_pretty_print(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("sweep.shards.total").add(2)
        registry.counter("core.bayesian.draws").add(6)
        path = registry.snapshot().write(tmp_path / "m.json")
        assert experiment_main(["obs", "metrics", str(path)]) == 0
        assert capsys.readouterr().out == (
            "core.bayesian.draws = 6\nsweep.shards.total = 2\n"
        )

        # Counters only, also from a snapshot that carries other sections.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({
            "schema_version": 1,
            "counters": {"gibbs.draws": 6},
            "histograms": {"sweep.shard_seconds": {"count": 1, "sum": 0.5}},
        }))
        assert experiment_main(["obs", "metrics", str(legacy)]) == 0
        assert capsys.readouterr().out == "gibbs.draws = 6\n"

    def test_missing_path_is_a_usage_error(self, capsys):
        assert experiment_main(["obs", "trace"]) == 2
        assert "requires a path" in capsys.readouterr().err

    def test_unreadable_artefact_exits_2(self, tmp_path, capsys):
        assert experiment_main(["obs", "trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestTelemetryPathResolution:
    def test_trace_alone_implies_a_metrics_snapshot(self):
        trace, metrics = resolve_telemetry_paths("out/run.json", None)
        assert trace == "out/run.json"
        assert metrics == "out/run.metrics.json"

    def test_nothing_requested_means_no_telemetry(self):
        assert resolve_telemetry_paths(None, None) == (None, None)


class TestFlowTracing:
    @pytest.mark.slow
    def test_characterize_with_trace_emits_all_artefacts(
        self, tmp_path, capsys, cold_default_cache
    ):
        ws = tmp_path / "ws"
        assert flow_main(["init", str(ws), "--serial", "7", "--scale", "0.012"]) == 0
        base = tmp_path / "out" / "run"
        rc = flow_main(["--trace", str(base), "characterize", str(ws), "--jobs", "1"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "trace written:" in err and "metrics written:" in err

        records = load_trace_jsonl(base.with_suffix(".jsonl"))
        names = {r["name"] for r in records}
        assert {
            "characterize_multiplier",
            "run_sweep",
            "run_shard",
            "capture_stream_batch",
        } <= names

        chrome = json.loads(base.with_suffix(".json").read_text())
        assert chrome["otherData"]["producer"] == "repro.obs"
        assert len(chrome["traceEvents"]) == len(records)

        snapshot = load_metrics_snapshot(tmp_path / "out" / "run.metrics.json")
        assert set(snapshot) == {"schema_version", "counters"}
        assert snapshot["counters"]["characterization.harness.calls"] >= 1
        assert snapshot["counters"]["sweep.shards.total"] > 0
        assert "parallel.cache.hits" in snapshot["counters"]
