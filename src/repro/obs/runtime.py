"""The process-wide observer and the entry-point tracer behind it.

Enabling telemetry (:func:`enable_observability`, the
:func:`observability` context manager, or the CLIs' ``--trace`` /
``--metrics`` flags) installs one wrapper per entry of
:data:`repro.obs.table.ENTRIES`: on the entry's class for a method,
otherwise in its defining module and in every loaded module that bound
the function by name.  Each wrapped call records one span and adds to
its layer's counters.  Disabling uninstalls them, restoring the original
functions, so with telemetry off the library runs exactly its own code.
Telemetry reads clocks and counts calls; it never consumes RNG state,
which keeps results bit-identical with it on.

A call made through a reference taken before install (a closure or a
container holding the original function) is not traced.

Pool workers: :func:`worker_settings` is what the parent hands the
sweep's pool initializer, :func:`start_worker` makes the worker record
as the parent does (installing the wrappers once, or keeping the ones a
forked worker inherited), :func:`drain` returns a pooled attempt's spans
and counts with its result, and :func:`adopt` adds them to the parent's,
under the sweep's span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from .metrics import MetricsRegistry, MetricsSnapshot
from .table import ENTRIES, Call, Entry
from .trace import SpanRecord, Tracer

__all__ = [
    "Observer",
    "WorkerSettings",
    "WorkerTelemetry",
    "adopt",
    "default_metrics_path",
    "disable_observability",
    "drain",
    "enable_observability",
    "export_trace_files",
    "get_observer",
    "install",
    "observability",
    "set_observer",
    "snapshot_metrics",
    "start_worker",
    "uninstall",
    "worker_settings",
]

#: ``(trace_on, metrics_on, trace origin)`` of the parent process.
WorkerSettings = tuple[bool, bool, float]
#: A pooled attempt's spans and counter values.
WorkerTelemetry = tuple[tuple[SpanRecord, ...], dict[str, int]]


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


def _fresh_observer(trace: bool = False, metrics: bool = False) -> Observer:
    return Observer(Tracer(), MetricsRegistry(), bool(trace), bool(metrics))


_observer: Observer = _fresh_observer()

#: ``(owner, name, original, wrapper)`` of every binding :func:`install` replaced.
_RESTORE: list[tuple[Any, str, Any, Any]] = []


def _wrap(entry: Entry, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` recording one span per call and adding to its layer's counters."""
    name, layer = entry.qualname, entry.layer
    calls = f"{layer}.calls"

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        ob = _observer
        span = ob.tracer.start(name, layer) if ob.trace_on else None
        call = Call(args, kwargs)
        counts: dict[str, int] = {}
        try:
            if entry.probe is not None:
                call.probed = entry.probe(call)
            call.result = fn(*args, **kwargs)
            if entry.count is not None:
                counts = entry.count(call)
            return call.result
        finally:
            if span is not None:
                ob.tracer.finish(span, counts)
            if ob.metrics_on:
                ob.metrics.counter(calls).add()
                for key, n in counts.items():
                    ob.metrics.counter(f"{layer}.{key}").add(n)

    return traced


def _rebind(owner: Any, attr: str, wrapper: Any) -> None:
    _RESTORE.append((owner, attr, vars(owner)[attr], wrapper))
    setattr(owner, attr, wrapper)


def _module_bindings(
    swaps: dict[int, tuple[Any, Any]],
) -> Iterator[tuple[types.ModuleType, str, Any]]:
    """``(module, name, new)`` for each loaded module's binding of an ``old``.

    ``swaps`` maps ``id(old)`` to ``(old, new)``.
    """
    for loaded in list(sys.modules.values()):
        if not isinstance(loaded, types.ModuleType):
            continue
        for binding, value in list(vars(loaded).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                yield loaded, binding, hit[1]


def install() -> None:
    """Wrap every entry point; a no-op while the wrappers are installed."""
    if _RESTORE:
        return
    functions: dict[int, tuple[Any, Any]] = {}
    for entry in ENTRIES:
        module = importlib.import_module(entry.module)
        owner_name, _, attr = entry.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            _rebind(owner, attr, _wrap(entry, vars(owner)[attr]))
        else:
            original = vars(module)[attr]
            functions[id(original)] = (original, _wrap(entry, original))
    for loaded, binding, wrapper in _module_bindings(functions):
        _rebind(loaded, binding, wrapper)


def uninstall() -> None:
    """Restore every binding :func:`install` replaced.

    A module imported while the wrappers were installed bound a wrapper
    by name; that binding gets the original back too.
    """
    if not _RESTORE:
        return
    wrappers = {id(w): (w, original) for _, _, original, w in _RESTORE}
    while _RESTORE:
        owner, attr, original, _ = _RESTORE.pop()
        setattr(owner, attr, original)
    for loaded, binding, original in _module_bindings(wrappers):
        setattr(loaded, binding, original)


def get_observer() -> Observer:
    """The process-wide observer (disabled by default)."""
    return _observer


def set_observer(observer: Observer | None) -> Observer:
    """Replace the process-wide observer; returns the previous one.

    ``None`` installs a fresh disabled observer.  The entry-point
    wrappers are installed while the observer is enabled and removed
    while it is not.
    """
    global _observer
    previous = _observer
    _observer = observer if observer is not None else _fresh_observer()
    if _observer.enabled:
        install()
    else:
        uninstall()
    return previous


def enable_observability(trace: bool = True, metrics: bool = True) -> Observer:
    """Install and return a fresh enabled observer."""
    observer = _fresh_observer(trace, metrics)
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
    observer = _fresh_observer(trace, metrics)
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)


# ----------------------------------------------------------------------
# Pool workers.
def worker_settings() -> WorkerSettings | None:
    """What a pool worker needs to record as this process does; ``None`` when off."""
    ob = _observer
    if not ob.enabled:
        return None
    return ob.trace_on, ob.metrics_on, ob.tracer.origin


def start_worker(settings: WorkerSettings | None) -> None:
    """Pool-initializer hook: record as the parent does, or not at all.

    The worker's tracer shares the parent's time origin.  A forked worker
    inherits the parent's observer and wrappers; it gets a fresh observer
    and keeps (or, with telemetry off, removes) the wrappers, so no
    function is wrapped twice.
    """
    if settings is None:
        set_observer(None)
        return
    trace, metrics, origin = settings
    observer = _fresh_observer(trace, metrics)
    observer.tracer.origin = origin
    set_observer(observer)


def drain() -> WorkerTelemetry | None:
    """This process's spans and counters since the last drain; ``None`` when off."""
    ob = _observer
    if not ob.enabled:
        return None
    counters = ob.metrics.snapshot().counters
    ob.metrics.reset()
    return ob.tracer.drain(), counters


def adopt(telemetry: WorkerTelemetry | None) -> None:
    """Add a worker's drained telemetry to this process's, under the open span."""
    if telemetry is None:
        return
    records, counters = telemetry
    ob = _observer
    if ob.trace_on:
        ob.tracer.adopt(records)
    if ob.metrics_on:
        ob.metrics.merge(counters)


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
