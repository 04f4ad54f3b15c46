"""Outside-in tracer: spans around each layer's entry points, from outside ``repro``.

:meth:`Tracer.install` rebinds every entry point in :data:`ENTRIES` in each
loaded ``repro.*`` module, and each module of this benchmark, that holds it
(a method is rebound on its class), so calls made through ``from x import
f`` bindings are traced too.  Each wrapper records one span per call —
name, start, end, parent, workload and rep — plus the work it did (node
transitions, captured cycles, Gibbs iterations, the linted netlist's
fingerprint).  Work counts are taken outside the span's ``[start, end]``,
and the wrapper's own bookkeeping time is stored as ``overhead`` so
:func:`layer_metrics` can leave it out of every self time.  Spans stay in
memory and :meth:`Tracer.write` writes them as JSONL when the rep ends.

Standard library only at import time: the runner computes the per-layer
metrics from the JSONL without loading numpy or ``repro``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["ENTRIES", "Entry", "Tracer", "layer_metrics", "read_spans"]


@dataclass
class Call:
    """One traced call, as an entry's ``probe`` and ``count`` see it.

    ``memo`` is the tracer's scratch space, shared by all its calls.
    """

    args: tuple
    kwargs: dict
    memo: dict
    result: Any = None
    probed: Any = None

    def arg(self, index: int, name: str, default: Any = None) -> Any:
        if name in self.kwargs:
            return self.kwargs[name]
        return self.args[index] if len(self.args) > index else default


def _node_transitions(call: Call) -> dict:
    # settle is (n_nodes, n_transitions): one entry per node transition.
    return {"node_transitions": int(call.result.settle.size)}


def _captured_cycles(call: Call) -> dict:
    return {"captured_cycles": int(call.result.captured_bits.shape[0])}


def _captured_cycles_batch(call: Call) -> dict:
    # captured is (frequencies, cycles).
    return {"captured_cycles": int(call.result.captured.size)}


def _shard_attempt(call: Call) -> dict:
    return {"attempt": int(call.arg(5, "attempt", 0))}


def _cache_hits(call: Call) -> int:
    stats = call.args[0].stats()
    return stats.memory_hits + stats.disk_hits


def _cache_hit(call: Call) -> dict:
    return {"hit": int(_cache_hits(call) > call.probed)}


def _linted_netlist(call: Call) -> dict:
    # Fingerprinted by Tracer.write, after the timed region; until then the
    # tracer holds the netlist, which keeps its id unique.
    netlist = call.arg(0, "netlist")
    call.memo.setdefault("netlists", {})[id(netlist)] = netlist
    return {"netlist": id(netlist)}


def _fingerprint(netlist: Any) -> str:
    from repro.kernels.plan import netlist_fingerprint
    from repro.netlist.core import CompiledNetlist

    compiled = netlist if isinstance(netlist, CompiledNetlist) else netlist.compile()
    return netlist_fingerprint(compiled)


def _gibbs_iterations(call: Call) -> dict:
    from repro.core.bayesian import GibbsConfig

    config = call.arg(4, "config") or GibbsConfig()
    return {"iterations": config.burn_in + config.n_samples}


@dataclass(frozen=True)
class Entry:
    """One traced entry point.

    ``probe`` runs before the call and ``count`` after it; both are
    bookkeeping, outside the span.
    """

    layer: str
    module: str
    qualname: str
    count: Callable[[Call], dict] | None = None
    probe: Callable[[Call], Any] | None = None


#: The public entry points of each layer; ``layer`` prefixes its metrics.
ENTRIES: tuple[Entry, ...] = (
    Entry("timing.simulator", "repro.timing.simulator", "simulate_transitions",
          count=_node_transitions),
    Entry("kernels.execute", "repro.kernels.execute", "stream_values"),
    Entry("kernels.plan", "repro.kernels.plan", "plan_for"),
    Entry("timing.capture", "repro.timing.capture", "capture_stream", count=_captured_cycles),
    Entry("timing.capture", "repro.timing.capture", "capture_stream_batch",
          count=_captured_cycles_batch),
    Entry("parallel.engine", "repro.parallel.engine", "run_shard", count=_shard_attempt),
    Entry("parallel.cache", "repro.parallel.cache", "PlacedDesignCache.get_or_place",
          count=_cache_hit, probe=_cache_hits),
    Entry("synthesis.flow", "repro.synthesis.flow", "SynthesisFlow.run"),
    Entry("synthesis.placer", "repro.synthesis.placer", "place_netlist"),
    Entry("analysis", "repro.analysis.linter", "check_netlist", count=_linted_netlist),
    Entry("core.bayesian", "repro.core.bayesian", "sample_projection_vector",
          count=_gibbs_iterations),
    Entry("core.optimizer", "repro.core.optimizer", "optimize_designs"),
    Entry("models.error_model", "repro.models.error_model", "build_error_model"),
    Entry("models.area_model", "repro.models.area_model", "collect_area_samples"),
    Entry("models.area_model", "repro.models.area_model", "fit_area_model"),
    Entry("circuits.executor", "repro.circuits.executor", "evaluate_design"),
    Entry("circuits.datapath", "repro.circuits.datapath", "ProjectionDatapath.run_lane"),
    Entry("characterization.harness", "repro.characterization.harness",
          "characterize_multiplier"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(e.layer for e in ENTRIES))

#: Top-level packages whose modules get their bindings rebound: the
#: library, and this benchmark (its workloads call entry points directly).
_SCANNED = ("repro", "benchmarks")


class Tracer:
    """Records spans for one rep while installed."""

    def __init__(self, workload: str, rep: int) -> None:
        self.workload = workload
        self.rep = rep
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []
        self._memo: dict = {}

    def install(self) -> None:
        """Wrap every entry point wherever a loaded module of ``_SCANNED`` binds it."""
        for entry in ENTRIES:
            module = importlib.import_module(entry.module)
            owner_name, _, attr = entry.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._rebind(owner, attr, self._wrap(entry, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(entry, original)
            for name, loaded in list(sys.modules.items()):
                if name.partition(".")[0] not in _SCANNED:
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, binding, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSONL, times in seconds since ``origin``.

        Linted netlists are replaced by their content fingerprints here.
        """
        fingerprints = {
            key: _fingerprint(netlist)
            for key, netlist in self._memo.get("netlists", {}).items()
        }
        with path.open("w") as fh:
            for span in self.spans:
                row = dict(span, start=span["start"] - origin, end=span["end"] - origin)
                if "netlist" in row:
                    row["netlist"] = fingerprints[row["netlist"]]
                fh.write(json.dumps(row) + "\n")

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, entry: Entry, fn: Callable) -> Callable:
        spans, stack, memo, clock = self.spans, self._stack, self._memo, time.perf_counter
        base = {"name": entry.layer, "fn": entry.qualname,
                "workload": self.workload, "rep": self.rep}

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            b0 = clock()
            # Spans are stored when they end: the ones started before this
            # one are either stored or still open, so this id is unique.
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            call = Call(args, kwargs, memo)
            if entry.probe is not None:
                call.probed = entry.probe(call)
            stack.append(span_id)
            ok = False
            t0 = clock()
            try:
                call.result = fn(*args, **kwargs)
                ok = True
                return call.result
            finally:
                t1 = clock()
                stack.pop()
                counts = entry.count(call) if ok and entry.count is not None else {}
                span = dict(base, id=span_id, parent=parent, start=t0, end=t1, **counts)
                spans.append(span)
                span["overhead"] = (t0 - b0) + (clock() - t1)

        return wrapper


def read_spans(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced rep whose timed region took ``wall_s``.

    A span's self time is its duration minus its children's durations and
    their wrappers' bookkeeping.  ``unattributed_s`` is the traced wall time
    outside every top-level span, bookkeeping excluded, so the self times
    plus ``unattributed_s`` plus the total bookkeeping equal ``wall_s``.
    """
    child_cost: dict[int, float] = defaultdict(float)
    top_cost = 0.0
    for s in spans:
        cost = s["end"] - s["start"] + s["overhead"]
        if s["parent"] is None:
            top_cost += cost
        else:
            child_cost[s["parent"]] += cost
    self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    calls: Counter[str] = Counter()
    work: Counter[str] = Counter()
    fingerprints = set()
    for s in spans:
        layer = s["name"]
        self_s[layer] += s["end"] - s["start"] - child_cost[s["id"]]
        calls[layer] += 1
        # Each work count belongs to one layer's spans only.
        for key in ("node_transitions", "captured_cycles", "iterations", "hit"):
            work[key] += s.get(key, 0)
        work["retries"] += s.get("attempt", 0) > 0
        if "netlist" in s:
            fingerprints.add(s["netlist"])

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    nt, cc, it, retries = (
        work["node_transitions"], work["captured_cycles"], work["iterations"], work["retries"]
    )
    out.update({
        "timing.simulator.calls": calls["timing.simulator"],
        "timing.simulator.node_transitions": nt,
        "timing.simulator.ns_per_node_transition": per(self_s["timing.simulator"], nt, 1e9),
        "kernels.plan.calls": calls["kernels.plan"],
        "timing.capture.calls": calls["timing.capture"],
        "timing.capture.captured_cycles": cc,
        "timing.capture.ns_per_captured_cycle": per(self_s["timing.capture"], cc, 1e9),
        "parallel.engine.shards": calls["parallel.engine"] - retries,
        "parallel.engine.retries": retries,
        "parallel.cache.calls": calls["parallel.cache"],
        "parallel.cache.hit_ratio": per(work["hit"], calls["parallel.cache"]),
        "synthesis.flow.calls": calls["synthesis.flow"],
        "analysis.calls": calls["analysis"],
        "analysis.distinct_ratio": per(len(fingerprints), calls["analysis"]),
        "core.bayesian.calls": calls["core.bayesian"],
        "core.bayesian.iterations": it,
        "core.bayesian.us_per_iteration": per(self_s["core.bayesian"], it, 1e6),
        "circuits.executor.calls": calls["circuits.executor"],
        "unattributed_s": wall_s - top_cost,
        "trace_bookkeeping_s": sum(s["overhead"] for s in spans),
    })
    return out
