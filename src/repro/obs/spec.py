"""The telemetry catalogue: every span and metric the library can emit.

Observability names are **closed-world**: a span or metric that is not
declared here cannot be created while telemetry is enabled
(:class:`~repro.errors.ObservabilityError`).  That single constraint is
what makes ``docs/observability.md`` trustworthy — its reference tables
are *generated* from this catalogue (:func:`telemetry_reference_markdown`)
and a drift test (``tests/obs/test_docs_drift.py``) fails whenever the
document and the catalogue diverge, exactly like the lint-rule table in
``docs/static_analysis.md``.

Determinism flag
----------------
A metric is marked *deterministic* when its value on a fault-free run is
a pure function of the workload — invariant across worker counts
(``REPRO_JOBS``), cache temperature and retry scheduling.  Deterministic
metrics are the ones ``MetricsSnapshot.deterministic_counters`` exposes
and the parallel-determinism test pins across ``jobs`` values;
process-local cache and pool counters are explicitly not in that set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ObservabilityError

__all__ = [
    "METRIC_CATALOG",
    "MetricSpec",
    "SPAN_CATALOG",
    "SpanSpec",
    "metric_spec",
    "metrics_table_markdown",
    "span_spec",
    "spans_table_markdown",
    "telemetry_reference_markdown",
]

@dataclass(frozen=True)
class SpanSpec:
    """One hierarchical trace-span name the library may open.

    Attributes
    ----------
    name:
        Dotted span name (``stage.operation``).
    emitted_by:
        The module that opens the span.
    description:
        What one occurrence of the span covers.
    """

    name: str
    emitted_by: str
    description: str


@dataclass(frozen=True)
class MetricSpec:
    """One counter the library may record (counters only ever grow).

    Attributes
    ----------
    unit:
        Human-readable unit of the counted events.
    deterministic:
        Value is workload-pure on fault-free runs: identical at any
        ``jobs`` worker count and cache temperature (see module docs).
    """

    name: str
    unit: str
    emitted_by: str
    deterministic: bool
    description: str


#: Catalogue of every span the library opens, sorted by name.
SPAN_CATALOG: tuple[SpanSpec, ...] = (
    SpanSpec(
        "audit.run",
        "repro.cli",
        "One `repro audit` invocation: source parse, call-graph reachability and the "
        "DT rule pass.",
    ),
    SpanSpec(
        "cache.synthesize",
        "repro.parallel.cache",
        "Placed-design cache miss: one synthesis + placement rebuild of the keyed geometry.",
    ),
    SpanSpec(
        "capture.batch",
        "repro.parallel.engine",
        "One inline shard's batched capture: its simulated stream sampled at every "
        "sweep frequency (cycles per frequency x frequencies).",
    ),
    SpanSpec(
        "characterize.sweep",
        "repro.characterization.harness",
        "One word-length's full characterisation sweep: planning, sharding, execution, grid assembly.",
    ),
    SpanSpec(
        "flow.characterize",
        "repro.framework",
        "OptimizationFramework.characterize: every word-length's sweep plus error-model fitting.",
    ),
    SpanSpec(
        "flow.evaluate",
        "repro.framework",
        "One design evaluated in one domain on the framework's device.",
    ),
    SpanSpec(
        "flow.fit_area_model",
        "repro.framework",
        "Area-model sample collection over synthesis runs plus the polynomial fit.",
    ),
    SpanSpec(
        "gibbs.sample",
        "repro.core.optimizer",
        "One lockstep Gibbs call drawing every candidate projection vector of a "
        "dimension, one chain per (survivor, word-length) (burn-in + sampling + "
        "polish; attrs dimension, chains).",
    ),
    SpanSpec(
        "kernel.compile",
        "repro.kernels.plan",
        "Plan-cache miss: one netlist lowered to a bit-sliced execution plan (truth-table "
        "minimisation + level grouping + timing gathers).",
    ),
    SpanSpec(
        "kernel.eval",
        "repro.kernels.execute",
        "One bit-sliced plan execution; the consumer attribute tells evaluate / stream / tile apart.",
    ),
    SpanSpec(
        "optimize.dimension",
        "repro.core.optimizer",
        "One output dimension of Algorithm 1: Q survivors x word-length sweep of candidate draws.",
    ),
    SpanSpec(
        "optimize.run",
        "repro.core.optimizer",
        "One full Algorithm 1 run (all K dimensions) for one beta.",
    ),
    SpanSpec(
        "sweep.pool",
        "repro.parallel.engine",
        "The process-pool pass of a sweep: dispatch and harvest of every shard's first attempt.",
    ),
    SpanSpec(
        "sweep.run",
        "repro.parallel.engine",
        "Hardened execution of one sweep's shard set: pool pass, inline pass, retries, dispositions.",
    ),
    SpanSpec(
        "sweep.shard",
        "repro.parallel.engine",
        "One inline shard attempt: cached placement, transition simulation, batched capture, statistics.",
    ),
    SpanSpec(
        "synthesis.run",
        "repro.synthesis.flow",
        "SynthesisFlow.run: lint gate, placement, delay annotation, tool/area reports for one netlist.",
    ),
)

#: Catalogue of every counter the library records, sorted by name.
METRIC_CATALOG: tuple[MetricSpec, ...] = (
    MetricSpec(
        "cache.placed.hits",
        "lookups",
        "repro.parallel.cache",
        False,
        "Placed-design cache hits in this process.",
    ),
    MetricSpec(
        "cache.placed.misses",
        "lookups",
        "repro.parallel.cache",
        False,
        "Placed-design cache misses that fell through to a synthesis run in this process.",
    ),
    MetricSpec(
        "cache.placed.stores",
        "entries",
        "repro.parallel.cache",
        False,
        "Freshly synthesised designs written back to the cache in this process.",
    ),
    MetricSpec(
        "characterize.sweeps",
        "sweeps",
        "repro.characterization.harness",
        True,
        "Characterisation sweeps completed (one per word-length geometry).",
    ),
    MetricSpec(
        "gibbs.draws",
        "draws",
        "repro.core.optimizer",
        True,
        "Projection-vector Gibbs runs executed (dimension x survivor x word-length).",
    ),
    MetricSpec(
        "kernel.plan.cache_hits",
        "lookups",
        "repro.kernels.plan",
        False,
        "Execution-plan cache hits: netlists whose bit-sliced plan was already compiled "
        "in this process.",
    ),
    MetricSpec(
        "kernel.plan.cache_misses",
        "lookups",
        "repro.kernels.plan",
        False,
        "Execution-plan cache misses that ran a kernel.compile lowering in this process.",
    ),
    MetricSpec(
        "optimize.candidates",
        "designs",
        "repro.core.optimizer",
        True,
        "Candidate partial designs scored by Algorithm 1 across all dimensions.",
    ),
    MetricSpec(
        "optimize.dimensions",
        "dimensions",
        "repro.core.optimizer",
        True,
        "Output dimensions explored by Algorithm 1 (K per run).",
    ),
    MetricSpec(
        "sweep.attempts.total",
        "attempts",
        "repro.parallel.engine",
        False,
        "Shard attempts across the sweep, retries included (pool-failure paths add attempts).",
    ),
    MetricSpec(
        "sweep.pool.broken",
        "events",
        "repro.parallel.engine",
        False,
        "Process pools abandoned because a worker hard-crashed (BrokenExecutor).",
    ),
    MetricSpec(
        "sweep.pool.fallbacks",
        "events",
        "repro.parallel.engine",
        False,
        "Sweeps that abandoned the pool (timeout or breakage) and degraded to inline execution.",
    ),
    MetricSpec(
        "sweep.shards.completed",
        "shards",
        "repro.parallel.engine",
        True,
        "Shards whose first attempt produced a valid result.",
    ),
    MetricSpec(
        "sweep.shards.quarantined",
        "shards",
        "repro.parallel.engine",
        True,
        "Shards that never produced a valid result after all retries (NaN grid cells when degraded).",
    ),
    MetricSpec(
        "sweep.shards.recovered",
        "shards",
        "repro.parallel.engine",
        True,
        "Shards that succeeded only after one or more retries (bit-identical to first-try results).",
    ),
    MetricSpec(
        "sweep.shards.retried",
        "shards",
        "repro.parallel.engine",
        True,
        "Shards that needed more than one attempt, whether they eventually recovered or not.",
    ),
    MetricSpec(
        "sweep.shards.total",
        "shards",
        "repro.parallel.engine",
        True,
        "Shards planned across all executed sweeps ((location, multiplicand-chunk) units).",
    ),
    MetricSpec(
        "synthesis.runs",
        "runs",
        "repro.synthesis.flow",
        False,
        "SynthesisFlow.run invocations (cache hits skip these, so the count is cache-dependent).",
    ),
)

_SPANS_BY_NAME = {s.name: s for s in SPAN_CATALOG}
_METRICS_BY_NAME = {m.name: m for m in METRIC_CATALOG}


def span_spec(name: str) -> SpanSpec:
    """The catalogue entry for span ``name``; unknown names raise."""
    try:
        return _SPANS_BY_NAME[name]
    except KeyError:
        raise ObservabilityError(
            f"span {name!r} is not in the telemetry catalogue "
            f"(repro.obs.spec.SPAN_CATALOG); declare it there so "
            f"docs/observability.md stays complete"
        ) from None


def metric_spec(name: str) -> MetricSpec:
    """The catalogue entry for metric ``name``; unknown names raise."""
    try:
        return _METRICS_BY_NAME[name]
    except KeyError:
        raise ObservabilityError(
            f"metric {name!r} is not in the telemetry catalogue "
            f"(repro.obs.spec.METRIC_CATALOG); declare it there so "
            f"docs/observability.md stays complete"
        ) from None


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def spans_table_markdown() -> str:
    """The span catalogue as a GitHub-flavoured markdown table."""
    lines = [
        "| Span | Emitted by | Covers |",
        "|---|---|---|",
    ]
    for s in sorted(SPAN_CATALOG, key=lambda s: s.name):
        lines.append(
            f"| `{s.name}` | `{s.emitted_by}` | {_escape(s.description)} |"
        )
    return "\n".join(lines)


def metrics_table_markdown() -> str:
    """The counter catalogue as a GitHub-flavoured markdown table."""
    lines = [
        "| Counter | Unit | Deterministic | Emitted by | Meaning |",
        "|---|---|---|---|---|",
    ]
    for m in sorted(METRIC_CATALOG, key=lambda m: m.name):
        det = "yes" if m.deterministic else "no"
        lines.append(
            f"| `{m.name}` | {m.unit} | {det} "
            f"| `{m.emitted_by}` | {_escape(m.description)} |"
        )
    return "\n".join(lines)


def telemetry_reference_markdown() -> str:
    """Both reference tables, as embedded in ``docs/observability.md``.

    The document carries this block between generated-content markers;
    ``tests/obs/test_docs_drift.py`` fails when they diverge.
    """
    return (
        "### Trace spans\n\n"
        + spans_table_markdown()
        + "\n\n### Counters\n\n"
        + metrics_table_markdown()
    )
