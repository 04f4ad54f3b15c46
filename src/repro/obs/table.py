"""The entry-point table: every call the library's telemetry records.

Telemetry is taken from outside the library.  :data:`ENTRIES` names each
traced function by module and qualname (a method on its class), the
layer it belongs to and what one call covers;
:func:`repro.obs.runtime.install` wraps each of them, and each wrapped
call records one span and bumps its layer's counters.  No library module
carries a telemetry call of its own.

The table is also the catalogue: the span names (entry qualnames), the
counters (``<layer>.calls`` plus ``<layer>.<key>`` for each work count an
entry's ``count`` returns) and the reference block of
``docs/observability.md`` (:func:`telemetry_reference_markdown`, kept in
step by ``tests/obs/test_docs_drift.py``) all derive from it.

A counter is *deterministic* when its value on a fault-free run is a pure
function of the workload, the same at any ``jobs`` worker count and cache
temperature.  An entry lists the counters it records that are not
(process-local cache hits, synthesis that runs only on a cache miss, pool
bookkeeping) in ``varying``.

This module imports none of the modules it names: they load when the
tracer is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "COUNTERS",
    "Call",
    "DETERMINISTIC_COUNTERS",
    "ENTRIES",
    "Entry",
    "telemetry_reference_markdown",
]


@dataclass
class Call:
    """One traced call, as an entry's ``probe`` and ``count`` see it."""

    args: tuple[Any, ...]
    kwargs: dict[str, Any]
    result: Any = None
    probed: Any = None

    def arg(self, index: int, name: str, default: Any = None) -> Any:
        """The argument passed by keyword ``name`` or at position ``index``."""
        if name in self.kwargs:
            return self.kwargs[name]
        return self.args[index] if len(self.args) > index else default


@dataclass(frozen=True)
class Entry:
    """One traced entry point.

    Attributes
    ----------
    layer:
        The layer whose self time and counters the entry's calls feed.
    module, qualname:
        Where the function is defined; a method is ``Class.method``.
    description:
        What one call covers.
    counts:
        The work-count keys ``count`` returns; each is the counter
        ``<layer>.<key>`` and a span attribute.
    count:
        Work counts of a finished call, from its arguments and result.
    probe:
        Runs before the call; its value reaches ``count`` as
        :attr:`Call.probed`.
    varying:
        The entry's counter keys (``"calls"`` among them) whose values
        depend on process-local caches or pool scheduling.
    """

    layer: str
    module: str
    qualname: str
    description: str
    counts: tuple[str, ...] = ()
    count: Callable[[Call], dict[str, int]] | None = None
    probe: Callable[[Call], Any] | None = None
    varying: tuple[str, ...] = ()


def _node_transitions(call: Call) -> dict[str, int]:
    # settle is (n_nodes, n_transitions): one entry per node transition.
    return {"node_transitions": int(call.result.settle.size)}


def _captured_cycles(call: Call) -> dict[str, int]:
    return {"captured_cycles": int(call.result.captured_bits.shape[0])}


def _captured_cycles_batch(call: Call) -> dict[str, int]:
    # captured is (frequencies, cycles).
    return {"captured_cycles": int(call.result.captured.size)}


def _shard_retry(call: Call) -> dict[str, int]:
    return {"retries": int(call.arg(5, "attempt", 0) > 0)}


_SWEEP_COUNTS = (
    "shards.total",
    "shards.completed",
    "shards.recovered",
    "shards.quarantined",
    "shards.retried",
    "attempts.total",
    "pool.fallbacks",
    "pool.broken",
)


def _sweep_outcome(call: Call) -> dict[str, int]:
    # Counted from the SweepOutcome the parent returns, so the shard
    # counts cannot depend on where the attempts ran.
    outcome = call.result
    counts = {
        "shards.total": len(outcome.reports),
        "shards.completed": 0,
        "shards.recovered": 0,
        "shards.quarantined": 0,
        "shards.retried": len(outcome.retried),
        "attempts.total": outcome.total_attempts,
    }
    for report in outcome.reports:
        counts[f"shards.{report.disposition}"] += 1
    if outcome.fallback_inline:
        counts["pool.fallbacks"] = 1
    if outcome.pool_broken:
        counts["pool.broken"] = 1
    return counts


def _placed_hits(call: Call) -> int:
    return int(call.args[0].stats().memory_hits)


def _placed_hit(call: Call) -> dict[str, int]:
    return {"hits": int(_placed_hits(call) > call.probed)}


def _plan_cache_size(call: Call) -> int:
    from ..kernels.plan import plan_cache_size

    return plan_cache_size()


def _plan_hit(call: Call) -> dict[str, int]:
    # A miss compiles a plan and grows the cache by one.
    return {"hits": int(_plan_cache_size(call) == call.probed)}


def _gibbs_work(call: Call) -> dict[str, int]:
    from ..core.bayesian import GibbsConfig

    config = call.arg(4, "config") or GibbsConfig()
    chains = len(call.result)
    return {
        "draws": chains,
        "iterations": chains * (config.burn_in + config.n_samples),
    }


def _optimizer_work(call: Call) -> dict[str, int]:
    history = call.result.candidate_history
    return {
        "dimensions": len(history),
        "candidates": sum(len(candidates) for candidates in history),
    }


#: The traced entry points, grouped by layer.
ENTRIES: tuple[Entry, ...] = (
    Entry("timing.simulator", "repro.timing.simulator", "simulate_transitions",
          "Settle propagation: every node's settle time at every transition "
          "of one stimulus stream.",
          counts=("node_transitions",), count=_node_transitions),
    Entry("kernels.execute", "repro.kernels.execute", "stream_values",
          "The functional kernel: one bit-sliced plan run giving every node's "
          "value plane for a stimulus stream."),
    Entry("kernels.plan", "repro.kernels.plan", "plan_for",
          "Execution-plan lookup, compiling the netlist's bit-sliced plan on a "
          "miss; `hits` counts plan-cache hits.",
          counts=("hits",), count=_plan_hit, probe=_plan_cache_size,
          varying=("hits",)),
    Entry("timing.capture", "repro.timing.capture", "capture_stream",
          "One simulated stream captured at one clock.",
          counts=("captured_cycles",), count=_captured_cycles),
    Entry("timing.capture", "repro.timing.capture", "capture_stream_batch",
          "One simulated stream captured at every clock of a sweep in one pass.",
          counts=("captured_cycles",), count=_captured_cycles_batch),
    Entry("timing.sta", "repro.timing.sta", "arrival_times",
          "Static timing: every node's worst-case arrival time on one placed "
          "netlist (tool reports, device STA, a lane's settle bound, "
          "sensitised STA).",
          varying=("calls",)),
    Entry("parallel.engine", "repro.parallel.engine", "run_shard",
          "One shard attempt: cached placement, transition simulation, batched "
          "capture and segment statistics; `retries` counts attempts after "
          "the first.",
          counts=("retries",), count=_shard_retry),
    Entry("sweep", "repro.parallel.engine", "run_sweep",
          "One sweep's shards with retries and quarantine, over the process "
          "pool when jobs > 1; pool workers' spans nest under it.  Its "
          "counters come from the SweepOutcome it returns.",
          counts=_SWEEP_COUNTS, count=_sweep_outcome,
          varying=("attempts.total", "pool.fallbacks", "pool.broken")),
    Entry("parallel.cache", "repro.parallel.cache", "PlacedDesignCache.get_or_place",
          "Placed-design lookup, synthesising on a miss; `hits` counts cache hits.",
          counts=("hits",), count=_placed_hit, probe=_placed_hits,
          varying=("hits",)),
    Entry("synthesis.flow", "repro.synthesis.flow", "SynthesisFlow.run",
          "Lint gate, placement, delay annotation and reports for one netlist.",
          varying=("calls",)),
    Entry("synthesis.placer", "repro.synthesis.placer", "place_netlist",
          "Placement of one netlist at one anchor.",
          varying=("calls",)),
    Entry("analysis", "repro.analysis.linter", "check_netlist",
          "The netlist lint gate on one netlist.",
          varying=("calls",)),
    Entry("core.bayesian", "repro.core.bayesian", "sample_projection_vectors",
          "One lockstep Gibbs call of Algorithm 1: burn-in, sampling and polish "
          "of every chain; one draw per chain, chains x (burn-in + samples) "
          "iterations.",
          counts=("draws", "iterations"), count=_gibbs_work),
    Entry("core.optimizer", "repro.core.optimizer", "optimize_designs",
          "One Algorithm 1 run for one beta: K dimensions of candidate draws.",
          counts=("dimensions", "candidates"), count=_optimizer_work),
    Entry("models.error_model", "repro.models.error_model", "build_error_model",
          "One word-length's error model fitted to its sweep."),
    Entry("models.area_model", "repro.models.area_model", "collect_area_samples",
          "Area reports of each word-length's MAC synthesis runs; nothing is "
          "placed."),
    Entry("models.area_model", "repro.models.area_model", "fit_area_model",
          "The polynomial area-model fit."),
    Entry("circuits.executor", "repro.circuits.executor", "evaluate_design",
          "One design evaluated in one domain."),
    Entry("circuits.datapath", "repro.circuits.datapath", "ProjectionDatapath.run_lane",
          "One datapath lane run over a test stream."),
    Entry("characterization.harness", "repro.characterization.harness",
          "characterize_multiplier",
          "One word-length's characterisation sweep: planning, stimulus, the "
          "sweep and grid assembly."),
    Entry("framework", "repro.framework", "OptimizationFramework.characterize",
          "Every word-length's sweep plus the error-model fits (cached after "
          "the first call)."),
    Entry("framework", "repro.framework", "OptimizationFramework.fit_area_model",
          "Area samples plus the area-model fit (cached after the first call)."),
    Entry("framework", "repro.framework", "OptimizationFramework.evaluate",
          "One design evaluated in one domain on the framework's device."),
    Entry("analysis.sanitizer", "repro.analysis.sanitizer.auditor", "audit_paths",
          "One determinism audit: parsing and every DT rule over every function."),
)


def _counters() -> dict[str, bool]:
    """Every counter name, mapped to whether it is deterministic."""
    counters: dict[str, bool] = {}
    for entry in ENTRIES:
        for key in ("calls",) + entry.counts:
            name = f"{entry.layer}.{key}"
            counters[name] = counters.get(name, True) and key not in entry.varying
    return counters


#: Every counter the entries can record.
COUNTERS: frozenset[str] = frozenset(_counters())

#: The counters whose values are workload-pure on fault-free runs.
DETERMINISTIC_COUNTERS: frozenset[str] = frozenset(
    name for name, pure in _counters().items() if pure
)


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def telemetry_reference_markdown() -> str:
    """The entry and counter tables embedded in ``docs/observability.md``.

    The document carries this block between generated-content markers;
    ``tests/obs/test_docs_drift.py`` fails when they diverge.
    """
    lines = [
        "### Entry points (one span per call)",
        "",
        "| Span | Layer | Module | Covers |",
        "|---|---|---|---|",
    ]
    for e in ENTRIES:
        lines.append(
            f"| `{e.qualname}` | `{e.layer}` | `{e.module}` | {_escape(e.description)} |"
        )
    lines += [
        "",
        "### Counters",
        "",
        "| Counter | Deterministic | Counted by |",
        "|---|---|---|",
    ]
    sources: dict[str, list[str]] = {}
    for e in ENTRIES:
        for key in ("calls",) + e.counts:
            sources.setdefault(f"{e.layer}.{key}", []).append(f"`{e.qualname}`")
    for name in sorted(sources):
        det = "yes" if name in DETERMINISTIC_COUNTERS else "no"
        lines.append(f"| `{name}` | {det} | {', '.join(sources[name])} |")
    return "\n".join(lines)
