"""The process-wide observability switchboard.

The library's hot paths call the module-level helpers here
(:func:`span`, :func:`counter_add`).  By default observability is
**off** and every helper is a near-free early return sharing one
stateless null span — no tracer, no registry, no timing reads — so the
instrumented code paths are bit- and cost-identical to uninstrumented
ones.  Enabling is explicit (:func:`enable_observability`, the
``observability`` context manager, or the CLIs' ``--trace`` /
``--metrics`` flags) and never touches RNG state, which is what
preserves bit-identical pipeline results with telemetry on.

Scope: the observer is **per process**.  Pool workers spawned by the
sweep engine run with observability disabled; the parent still traces
the dispatch/harvest of every shard and derives the shard-level counters
from the sweep outcome, so the deterministic counters are equal at any
worker count.  The spans and counters of a shard attempt's own work
(placement, synthesis, kernels, capture) come only from attempts that
run inline, so a pooled sweep's trace lacks them (see
``docs/observability.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from .metrics import MetricsRegistry, MetricsSnapshot
from .trace import Tracer

__all__ = [
    "Observer",
    "counter_add",
    "default_metrics_path",
    "enable_observability",
    "disable_observability",
    "export_trace_files",
    "get_observer",
    "metrics_enabled",
    "observability",
    "set_observer",
    "snapshot_metrics",
    "span",
    "trace_enabled",
]

class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


@dataclass
class Observer:
    """One process's telemetry state: a tracer plus a metrics registry."""

    tracer: Tracer
    metrics: MetricsRegistry
    trace_on: bool = False
    metrics_on: bool = False

    @property
    def enabled(self) -> bool:
        return self.trace_on or self.metrics_on


def _fresh_observer() -> Observer:
    return Observer(tracer=Tracer(), metrics=MetricsRegistry())


_observer: Observer = _fresh_observer()


def get_observer() -> Observer:
    """The process-wide observer (disabled by default)."""
    return _observer


def set_observer(observer: Observer | None) -> Observer:
    """Replace the process-wide observer; returns the previous one.

    ``None`` installs a fresh disabled observer.
    """
    global _observer
    previous = _observer
    _observer = observer if observer is not None else _fresh_observer()
    return previous


def enable_observability(trace: bool = True, metrics: bool = True) -> Observer:
    """Install and return a fresh enabled observer."""
    observer = _fresh_observer()
    observer.trace_on = bool(trace)
    observer.metrics_on = bool(metrics)
    set_observer(observer)
    return observer


def disable_observability() -> Observer:
    """Install a fresh disabled observer; returns the previous one."""
    return set_observer(None)


@contextmanager
def observability(trace: bool = True, metrics: bool = True) -> Iterator[Observer]:
    """Temporarily enable telemetry (tests, benches)::

        with observability() as obs:
            characterize_multiplier(...)
        obs.metrics.snapshot()
    """
    observer = _fresh_observer()
    observer.trace_on = bool(trace)
    observer.metrics_on = bool(metrics)
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


# ----------------------------------------------------------------------
# Hot-path helpers.  Each is a tiny guard + dispatch; when the observer
# is disabled, cost is one attribute read and a truth test.
def trace_enabled() -> bool:
    return _observer.trace_on


def metrics_enabled() -> bool:
    return _observer.metrics_on


def span(name: str, **attrs: Any) -> Any:
    """A live span when tracing is on; the shared null span otherwise."""
    ob = _observer
    if not ob.trace_on:
        return _NULL_SPAN
    return ob.tracer.span(name, **attrs)


def counter_add(name: str, n: int = 1) -> None:
    ob = _observer
    if ob.metrics_on:
        ob.metrics.counter(name).add(n)


# ----------------------------------------------------------------------
# Export plumbing shared by the CLIs and the quickstart example.
def _trace_base(path: str | Path) -> Path:
    base = Path(path)
    if base.suffix in (".json", ".jsonl"):
        base = base.with_suffix("")
    return base


def export_trace_files(trace_base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.jsonl`` (sidecar) and ``<base>.json`` (Chrome trace).

    ``trace_base`` may carry a ``.json``/``.jsonl`` suffix (it is
    stripped), so ``--trace out/run.json`` does the expected thing.
    Returns ``(jsonl_path, chrome_path)``.
    """
    base = _trace_base(trace_base)
    tracer = _observer.tracer
    return (
        tracer.export_jsonl(base.with_suffix(".jsonl")),
        tracer.export_chrome(base.with_suffix(".json")),
    )


def default_metrics_path(trace_base: str | Path) -> Path:
    """``<base>.metrics.json`` — where ``--trace`` alone puts the snapshot."""
    base = _trace_base(trace_base)
    return base.parent / (base.name + ".metrics.json")


def snapshot_metrics(path: str | Path | None = None) -> MetricsSnapshot:
    """Snapshot the current registry, optionally writing it to ``path``."""
    snap = _observer.metrics.snapshot()
    if path is not None:
        snap.write(path)
    return snap
