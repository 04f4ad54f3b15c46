"""Tracer semantics: hierarchy, adoption of worker spans, export round-trip."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    chrome_trace_from_records,
    layer_summary,
    load_trace_jsonl,
)
from repro.obs import runtime


def _record(tracer: Tracer, name: str, layer: str, **attrs: int) -> None:
    tracer.finish(tracer.start(name, layer), attrs)


def _tiny_trace() -> Tracer:
    tracer = Tracer()
    run = tracer.start("run_sweep", "sweep")
    _record(tracer, "run_shard", "parallel.engine", retries=0)
    _record(tracer, "run_shard", "parallel.engine", retries=1)
    tracer.finish(run, {"shards.total": 2})
    return tracer


class TestSpans:
    def test_parenting_follows_nesting(self):
        records = _tiny_trace().records
        # Completion order: the two shards finish before the run.
        assert [r.name for r in records] == ["run_shard", "run_shard", "run_sweep"]
        run = records[2]
        assert run.parent_id is None
        assert all(r.parent_id == run.span_id for r in records[:2])
        assert run.attrs == {"shards.total": 2}
        assert [r.layer for r in records] == ["parallel.engine"] * 2 + ["sweep"]

    def test_sibling_spans_do_not_nest(self):
        tracer = Tracer()
        _record(tracer, "run_sweep", "sweep")
        _record(tracer, "optimize_designs", "core.optimizer")
        first, second = tracer.records
        assert second.parent_id is None
        assert first.span_id != second.span_id

    def test_reset_clears_records_and_ids(self):
        tracer = _tiny_trace()
        tracer.reset()
        assert tracer.records == ()
        _record(tracer, "run_sweep", "sweep")
        assert tracer.records[0].span_id == 1

    def test_timings_are_monotone(self):
        for record in _tiny_trace().records:
            assert record.start_s >= 0.0
            assert record.duration_s >= 0.0


class TestExport:
    def test_jsonl_chrome_round_trip_is_byte_identical(self, tmp_path):
        tracer = _tiny_trace()
        jsonl = tracer.export_jsonl(tmp_path / "run.jsonl")
        chrome = tracer.export_chrome(tmp_path / "run.json")

        rebuilt = chrome_trace_from_records(load_trace_jsonl(jsonl))
        assert (
            json.dumps(rebuilt, sort_keys=True, indent=1) + "\n"
            == chrome.read_text()
        )

    def test_chrome_document_shape(self):
        doc = chrome_trace_from_records(
            r.as_dict() for r in _tiny_trace().records
        )
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.obs"
        events = doc["traceEvents"]
        assert len(events) == 3
        assert all(e["ph"] == "X" for e in events)
        # Category is the layer; timestamps are sorted microseconds.
        assert [e["cat"] for e in events if e["name"] == "run_shard"] == [
            "parallel.engine"
        ] * 2
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        # Hierarchy and work counts survive via args.
        run = next(e for e in events if e["name"] == "run_sweep")
        shard = next(e for e in events if e["name"] == "run_shard")
        assert run["args"]["shards.total"] == 2
        assert shard["args"]["parent_id"] == run["args"]["span_id"]

    def test_jsonl_records_carry_schema_version(self, tmp_path):
        path = _tiny_trace().export_jsonl(tmp_path / "run.jsonl")
        for record in load_trace_jsonl(path):
            assert record["schema_version"] == TRACE_SCHEMA_VERSION

    def test_empty_tracer_exports_empty_files(self, tmp_path):
        tracer = Tracer()
        assert (tracer.export_jsonl(tmp_path / "e.jsonl")).read_text() == ""
        doc = json.loads((tracer.export_chrome(tmp_path / "e.json")).read_text())
        assert doc["traceEvents"] == []

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read trace"):
            load_trace_jsonl(tmp_path / "absent.jsonl")

    def test_load_invalid_json_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "run_sweep"}\nnot json\n')
        with pytest.raises(ObservabilityError, match="bad.jsonl:2"):
            load_trace_jsonl(path)

    def test_load_non_record_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ObservabilityError, match="not a span record"):
            load_trace_jsonl(path)


class TestAdopt:
    def test_worker_spans_nest_under_the_open_span_with_fresh_ids(self):
        worker = Tracer(origin=0.0)
        shard = worker.start("run_shard", "parallel.engine")
        _record(worker, "simulate_transitions", "timing.simulator", node_transitions=6)
        worker.finish(shard, {"retries": 0})
        drained = worker.drain()
        assert worker.records == ()

        parent = Tracer(origin=0.0)
        sweep = parent.start("run_sweep", "sweep")
        parent.adopt(drained)
        parent.finish(sweep, {})
        sim, adopted, run = parent.records
        assert adopted.parent_id == run.span_id and sim.parent_id == adopted.span_id
        assert len({sim.span_id, adopted.span_id, run.span_id}) == 3
        assert (sim.start_s, sim.pid) == (drained[0].start_s, drained[0].pid)


class TestSummarize:
    def test_self_time_by_layer_sorted_largest_first(self):
        records = [
            {"name": "run_sweep", "layer": "sweep", "span_id": 1, "parent_id": None,
             "duration_s": 4.0, "pid": 1, "attrs": {"shards.total": 2}},
            {"name": "run_shard", "layer": "parallel.engine", "span_id": 2,
             "parent_id": 1, "duration_s": 1.0, "pid": 1, "attrs": {"retries": 0}},
            {"name": "run_shard", "layer": "parallel.engine", "span_id": 3,
             "parent_id": 1, "duration_s": 2.0, "pid": 1, "attrs": {"retries": 1}},
            # A pool worker's span runs beside its parent sweep span, so it
            # takes nothing from the sweep's self time.
            {"name": "run_shard", "layer": "parallel.engine", "span_id": 4,
             "parent_id": 1, "duration_s": 0.5, "pid": 2, "attrs": {"retries": 0}},
        ]
        rows = layer_summary(records)
        assert rows == [
            {"layer": "parallel.engine", "calls": 3, "self_s": 3.5,
             "work": {"retries": 1}},
            {"layer": "sweep", "calls": 1, "self_s": 1.0,
             "work": {"shards.total": 2}},
        ]


class TestPathConventions:
    def test_trace_suffix_stripped(self, tmp_path):
        runtime.enable_observability(trace=True, metrics=False)
        _record(runtime.get_observer().tracer, "run_sweep", "sweep")
        jsonl, chrome = runtime.export_trace_files(tmp_path / "run.json")
        assert jsonl == tmp_path / "run.jsonl"
        assert chrome == tmp_path / "run.json"
        assert len(load_trace_jsonl(jsonl)) == 1

    def test_default_metrics_path_preserves_dotted_names(self, tmp_path):
        base = tmp_path / "night.run"
        assert runtime.default_metrics_path(base).name == "night.run.metrics.json"
        assert (
            runtime.default_metrics_path(tmp_path / "run.jsonl").name
            == "run.metrics.json"
        )
