"""Trace spans with JSONL and Chrome ``trace_event`` export.

A :class:`Tracer` records one :class:`SpanRecord` per traced call — its
entry's qualname and layer, monotonic start offset, duration, work
counts and parent span — through :meth:`Tracer.start` and
:meth:`Tracer.finish`, which the entry-point wrappers of
:mod:`repro.obs.runtime` call.  Spans a pool worker recorded join the
parent's trace through :meth:`Tracer.adopt`, nested under the span open
at the time (the sweep's).

Two export formats:

* **JSONL sidecar** (:meth:`Tracer.export_jsonl`): one JSON object per
  finished span, in completion order — greppable, streamable, diffable;
* **Chrome trace JSON** (:meth:`Tracer.export_chrome`): complete
  (``"ph": "X"``) events loadable by ``chrome://tracing`` / Perfetto for
  flamegraph viewing, one lane per process.

The formats round-trip: :func:`chrome_trace_from_records` rebuilds the
Chrome document from loaded JSONL records, byte-identical to the direct
export (``tests/obs/test_trace.py`` pins this).
:func:`layer_summary` gives each layer's self time, calls and work
counts from the records (``repro obs trace``).

Timing uses ``time.perf_counter`` (monotonic, and on the platforms the
pool runs on the same clock in every process); recorded offsets are
relative to the tracer's origin, which a pool worker's tracer shares
with its parent's.  All of this is observation only — no RNG is
consumed and no numeric path is touched, which is what keeps traced runs
bit-identical to untraced ones.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..errors import ObservabilityError

__all__ = [
    "Span",
    "SpanRecord",
    "Tracer",
    "chrome_trace_from_records",
    "layer_summary",
    "load_trace_jsonl",
]

#: Schema version stamped into every JSONL record.
TRACE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``start_s`` is the offset from the tracer's origin in seconds;
    ``attrs`` holds the call's work counts; ``pid`` is the process that
    made the call.
    """

    name: str
    layer: str
    span_id: int
    parent_id: int | None
    start_s: float
    duration_s: float
    attrs: dict[str, int]
    pid: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "layer": self.layer,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
            "pid": self.pid,
        }


@dataclass(frozen=True)
class Span:
    """An open span: :meth:`Tracer.start`'s token for :meth:`Tracer.finish`."""

    name: str
    layer: str
    span_id: int
    parent_id: int | None
    t0: float


class Tracer:
    """Collects one process's spans; thread-safe."""

    def __init__(self, origin: float | None = None) -> None:
        self.origin = time.perf_counter() if origin is None else origin
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start(self, name: str, layer: str) -> Span:
        """Open a span nested in this thread's innermost open span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        return Span(name, layer, span_id, parent_id, time.perf_counter())

    def finish(self, span: Span, attrs: dict[str, int]) -> None:
        """Close ``span``, recording ``attrs`` as its work counts."""
        duration = time.perf_counter() - span.t0
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        record = SpanRecord(
            name=span.name,
            layer=span.layer,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start_s=span.t0 - self.origin,
            duration_s=duration,
            attrs=attrs,
            pid=self._pid,
        )
        with self._lock:
            self._records.append(record)

    def drain(self) -> tuple[SpanRecord, ...]:
        """The finished spans, removed from this tracer."""
        with self._lock:
            records = tuple(self._records)
            self._records.clear()
        return records

    def adopt(self, records: Sequence[SpanRecord]) -> None:
        """Add another process's spans under this thread's innermost open span.

        The spans get fresh ids; their start offsets must already be
        relative to this tracer's origin.
        """
        stack = self._stack()
        outer = stack[-1] if stack else None
        with self._lock:
            ids: dict[int, int] = {}
            for record in records:
                ids[record.span_id] = self._next_id
                self._next_id += 1
            for record in records:
                self._records.append(
                    replace(
                        record,
                        span_id=ids[record.span_id],
                        parent_id=ids.get(record.parent_id or 0, outer),
                    )
                )

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Finished spans, in completion order."""
        with self._lock:
            return tuple(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()
            self._next_id = 1
        self.origin = time.perf_counter()

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the JSONL sidecar: one record per line, completion order."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(r.as_dict(), sort_keys=True) for r in self.records]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def export_chrome(self, path: str | Path) -> Path:
        """Write the Chrome ``trace_event`` document for flamegraph viewing."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = chrome_trace_from_records(r.as_dict() for r in self.records)
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return path


def load_trace_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace sidecar back into record dicts."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace {path}: {exc}") from None
    records = []
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path}:{i + 1}: not a JSON trace record: {exc}"
            ) from None
        if not isinstance(rec, dict) or "name" not in rec:
            raise ObservabilityError(f"{path}:{i + 1}: not a span record")
        records.append(rec)
    return records


def chrome_trace_from_records(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Chrome ``trace_event`` document from JSONL-shaped records.

    Complete events (``"ph": "X"``), microsecond timestamps relative to
    the trace origin, the layer as category and the process as lane;
    work counts ride in ``args`` with the span identity, so the hierarchy
    survives the conversion.
    """
    events = []
    for rec in records:
        events.append(
            {
                "name": rec["name"],
                "cat": rec.get("layer", ""),
                "ph": "X",
                "ts": round(float(rec["start_s"]) * 1e6, 3),
                "dur": round(float(rec["duration_s"]) * 1e6, 3),
                "pid": int(rec.get("pid", 0)),
                "tid": int(rec.get("pid", 0)),
                "args": {
                    **dict(rec.get("attrs", {})),
                    "span_id": rec.get("span_id"),
                    "parent_id": rec.get("parent_id"),
                },
            }
        )
    events.sort(key=lambda e: (e["ts"], e["args"]["span_id"] or 0))
    return {
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "schema_version": TRACE_SCHEMA_VERSION},
        "traceEvents": events,
    }


def layer_summary(records: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Each layer's self time, calls and work counts (``repro obs trace``).

    A span's self time is its duration minus the durations of its
    children in the same process, so nested time counts once; a pool
    worker's spans are children of the parent's sweep span but run in
    parallel with it, and count as their own layers' time.  Returns rows
    ``{"layer", "calls", "self_s", "work"}`` sorted by self time,
    largest first; ``work`` sums the spans' work counts by key.
    """
    recs = list(records)
    pid_of = {rec.get("span_id"): rec.get("pid") for rec in recs}
    child_s: dict[Any, float] = {}
    for rec in recs:
        parent = rec.get("parent_id")
        if parent is not None and pid_of.get(parent) == rec.get("pid"):
            child_s[parent] = child_s.get(parent, 0.0) + float(rec["duration_s"])
    rows: dict[str, dict[str, Any]] = {}
    for rec in recs:
        layer = str(rec.get("layer", rec["name"]))
        row = rows.setdefault(layer, {"layer": layer, "calls": 0, "self_s": 0.0, "work": {}})
        row["calls"] += 1
        row["self_s"] += float(rec["duration_s"]) - child_s.get(rec.get("span_id"), 0.0)
        for key, n in sorted(dict(rec.get("attrs", {})).items()):
            row["work"][key] = row["work"].get(key, 0) + n
    out = sorted(rows.values(), key=lambda r: (-r["self_s"], r["layer"]))
    for row in out:
        row["self_s"] = round(row["self_s"], 6)
    return out
