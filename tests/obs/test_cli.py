"""CLI surfaces: ``repro obs ...`` and ``repro-flow --trace/--metrics``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as experiment_main
from repro.cli_flow import main as flow_main, resolve_telemetry_paths
from repro.obs import (
    METRIC_CATALOG,
    SPAN_CATALOG,
    Tracer,
    load_metrics_snapshot,
    load_trace_jsonl,
    telemetry_reference_markdown,
)


@pytest.fixture()
def trace_file(tmp_path):
    tracer = Tracer()
    with tracer.span("sweep.run", shards=1):
        with tracer.span("sweep.shard", li=0, start=0, attempt=1):
            pass
    return tracer.export_jsonl(tmp_path / "run.jsonl")


class TestObsSubcommand:
    def test_reference_prints_the_full_catalogue(self, capsys):
        assert experiment_main(["obs", "reference"]) == 0
        out = capsys.readouterr().out
        assert telemetry_reference_markdown() in out
        for spec in SPAN_CATALOG + METRIC_CATALOG:
            assert f"`{spec.name}`" in out

    def test_trace_summary_text(self, trace_file, capsys):
        assert experiment_main(["obs", "trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "sweep.run" in out and "sweep.shard" in out

    def test_trace_summary_json(self, trace_file, capsys):
        assert experiment_main(
            ["obs", "trace", str(trace_file), "--format", "json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} == {"sweep.run", "sweep.shard"}
        assert all(r["count"] == 1 for r in rows)

    def test_metrics_pretty_print(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("sweep.shards.total").add(2)
        registry.counter("gibbs.draws").add(6)
        path = registry.snapshot().write(tmp_path / "m.json")
        assert experiment_main(["obs", "metrics", str(path)]) == 0
        assert capsys.readouterr().out == "gibbs.draws = 6\nsweep.shards.total = 2\n"

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
        assert {"characterize.sweep", "sweep.run", "sweep.shard", "capture.batch"} <= names

        chrome = json.loads(base.with_suffix(".json").read_text())
        assert chrome["otherData"]["producer"] == "repro.obs"
        assert len(chrome["traceEvents"]) == len(records)

        snapshot = load_metrics_snapshot(tmp_path / "out" / "run.metrics.json")
        assert set(snapshot) == {"schema_version", "counters"}
        assert snapshot["counters"]["characterize.sweeps"] >= 1
        assert snapshot["counters"]["sweep.shards.total"] > 0
        assert "cache.placed.misses" in snapshot["counters"]
