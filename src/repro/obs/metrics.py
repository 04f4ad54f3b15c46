"""Metrics registry: catalogued counters with deterministic export.

Counters are created lazily by name through a :class:`MetricsRegistry`;
names are validated against the telemetry catalogue
(:mod:`repro.obs.spec`), so an undeclared metric cannot be recorded —
the guarantee behind the generated reference in ``docs/observability.md``.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain data with sorted
keys: two snapshots of the same registry state serialise byte-identically,
and the catalogue's ``deterministic`` flag carves out the subset whose
*values* are invariant across worker counts on fault-free runs
(:meth:`MetricsSnapshot.deterministic_counters` — pinned by
``tests/obs/test_determinism.py``).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import ObservabilityError
from .spec import MetricSpec, metric_spec

__all__ = [
    "Counter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "load_metrics_snapshot",
]

METRICS_SCHEMA_VERSION = 2


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("spec", "value", "_lock")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self.value = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ObservabilityError(
                f"counter {self.spec.name!r} cannot decrease (add {n})"
            )
        with self._lock:
            self.value += n


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time, JSON-ready view of one registry."""

    counters: dict[str, int]

    def deterministic_counters(self) -> dict[str, int]:
        """Counters whose catalogue entry is marked deterministic.

        On fault-free runs these values are invariant across ``jobs``
        worker counts and cache temperature — the subset the parallel
        determinism test compares.
        """
        return {
            name: value
            for name, value in self.counters.items()
            if metric_spec(name).deterministic
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": dict(sorted(self.counters.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


class MetricsRegistry:
    """Creates and holds counters; every name must be catalogued."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            spec = metric_spec(name)
            with self._lock:
                counter = self._counters.setdefault(name, Counter(spec))
        return counter

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

    def snapshot(self) -> MetricsSnapshot:
        """Deterministically ordered snapshot of every counter."""
        with self._lock:
            items = sorted(self._counters.items())
        return MetricsSnapshot(counters={name: c.value for name, c in items})


def load_metrics_snapshot(path: str | Path) -> dict[str, Any]:
    """Load an exported metrics snapshot back into a dict."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ObservabilityError(f"cannot read metrics {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{path}: not a metrics snapshot: {exc}") from None
    if not isinstance(payload, dict) or "counters" not in payload:
        raise ObservabilityError(f"{path}: not a metrics snapshot")
    return payload
