"""Observability for the characterisation → optimisation pipeline.

``repro.obs`` is a zero-dependency telemetry layer that watches the
library from outside.  One entry-point table (:mod:`repro.obs.table`)
names every traced function and its layer; enabling telemetry wraps
each of them (:mod:`repro.obs.runtime`), and each wrapped call records

* a **trace span** (:mod:`repro.obs.trace`) — its timing, parent and
  work counts, exportable as a JSONL sidecar and as Chrome
  ``trace_event`` JSON: where the time went;
* **counters** (:mod:`repro.obs.metrics`) — its layer's calls and work
  counts with deterministic snapshot/export: what work was done.

Sweep shards that run in pool workers are traced there and returned
with their results.  The reference tables in ``docs/observability.md``
are generated from the table and drift-tested.

Telemetry is **off by default**: no library module carries a telemetry
call, and disabling restores the original functions, so the library
runs its own code when nobody is watching.  Enable via ``repro-flow
--trace/--metrics`` or programmatically::

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
    default_metrics_path,
    disable_observability,
    enable_observability,
    export_trace_files,
    get_observer,
    observability,
    set_observer,
    snapshot_metrics,
)
from .table import (
    COUNTERS,
    DETERMINISTIC_COUNTERS,
    ENTRIES,
    Entry,
    telemetry_reference_markdown,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    SpanRecord,
    Tracer,
    chrome_trace_from_records,
    layer_summary,
    load_trace_jsonl,
)

__all__ = [
    "COUNTERS",
    "DETERMINISTIC_COUNTERS",
    "ENTRIES",
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Entry",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observer",
    "SpanRecord",
    "Tracer",
    "chrome_trace_from_records",
    "default_metrics_path",
    "disable_observability",
    "enable_observability",
    "export_trace_files",
    "get_observer",
    "layer_summary",
    "load_metrics_snapshot",
    "load_trace_jsonl",
    "observability",
    "set_observer",
    "snapshot_metrics",
    "telemetry_reference_markdown",
]
