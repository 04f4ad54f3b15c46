"""Observability for the characterisation → optimisation pipeline.

``repro.obs`` is a zero-dependency telemetry layer with two record
kinds:

* **trace spans** (:mod:`repro.obs.trace`) — hierarchical, monotonic
  timings with structured attributes, exportable as a JSONL sidecar and
  as Chrome ``trace_event`` JSON: where the time went;
* **counters** (:mod:`repro.obs.metrics`) — catalogued event counts
  with deterministic snapshot/export: what work was done.

Every name the library can emit is declared in the closed-world
catalogue (:mod:`repro.obs.spec`), from which the reference tables in
``docs/observability.md`` are generated and drift-tested.

Telemetry is **off by default** and the disabled path is a shared no-op
(:mod:`repro.obs.runtime`), so instrumented pipelines remain
bit-identical and effectively free when nobody is watching.  Enable via
``repro-flow --trace/--metrics`` or programmatically::

    from repro import obs

    with obs.observability() as observer:
        framework.characterize(...)
    observer.tracer.export_chrome("run.json")
    observer.metrics.snapshot().write("metrics.json")
"""

from .metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    MetricsRegistry,
    MetricsSnapshot,
    load_metrics_snapshot,
)
from .runtime import (
    Observer,
    counter_add,
    default_metrics_path,
    disable_observability,
    enable_observability,
    export_trace_files,
    get_observer,
    metrics_enabled,
    observability,
    set_observer,
    snapshot_metrics,
    span,
    trace_enabled,
)
from .spec import (
    METRIC_CATALOG,
    SPAN_CATALOG,
    MetricSpec,
    SpanSpec,
    metric_spec,
    metrics_table_markdown,
    span_spec,
    spans_table_markdown,
    telemetry_reference_markdown,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    SpanRecord,
    Tracer,
    chrome_trace_from_records,
    load_trace_jsonl,
    summarize_spans,
)

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "METRIC_CATALOG",
    "SPAN_CATALOG",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "MetricSpec",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observer",
    "Span",
    "SpanRecord",
    "SpanSpec",
    "Tracer",
    "chrome_trace_from_records",
    "counter_add",
    "default_metrics_path",
    "disable_observability",
    "enable_observability",
    "export_trace_files",
    "get_observer",
    "load_metrics_snapshot",
    "load_trace_jsonl",
    "metric_spec",
    "metrics_enabled",
    "metrics_table_markdown",
    "observability",
    "set_observer",
    "snapshot_metrics",
    "span",
    "span_spec",
    "spans_table_markdown",
    "summarize_spans",
    "telemetry_reference_markdown",
    "trace_enabled",
]
