"""Rep protocol, statistics, report and comparison of the pipeline benchmark.

One run of a workload:

1. builds the workload's shared inputs once, in a process of its own, if
   it has any (:data:`~benchmarks.pipeline.spec.PREPARED`);
2. runs timed reps one at a time, each a fresh ``python`` process with
   cold per-process caches, at least ``MIN_REPS`` and then more while the
   measuring window lasts — a closed loop of one batch job;
3. with tracing on, runs one more rep with the tracer installed, for the
   per-layer split.

Each rep times the host-speed probe of :mod:`~benchmarks.pipeline.calibrate`
right after its timed region; its ``wall_s`` and ``setup_s`` are its host
seconds scaled by ``REFERENCE_PROBE_S`` over that probe time.  A rep fails
if it raises, fails its workload check, or its output digest differs from
rep 1's.  Standard library only: this process never loads numpy or
``repro``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import spec
from .trace import layer_metrics, read_spans

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".bench_pipeline"
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
#: Unscaled host seconds and the probe that scaled them, kept beside END_TO_END.
HOST = ("wall_host_s", "setup_host_s", "probe_s")


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def load_benchmark() -> dict:
    """BENCHMARK.json, after checking the sources it measures are here."""
    if not (SRC / "repro").is_dir():
        raise BenchError(f"no repro sources under {SRC}")
    if not BENCHMARK_JSON.is_file():
        raise BenchError(f"{BENCHMARK_JSON} not found")
    return json.loads(BENCHMARK_JSON.read_text())


def rep_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(spec.REP_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _spawn(payload: dict) -> tuple[dict, str | None]:
    """Run one rep process; returns its result and an error, if any."""
    result_path = Path(payload["result"])
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "benchmarks.pipeline.rep", json.dumps(payload)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=rep_env(), capture_output=True, text=True,
            timeout=spec.REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {}, f"killed after {spec.REP_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {}, f"exit code {proc.returncode}: {last[0]}"
    if payload["mode"] == "prepare":
        return {}, None
    return json.loads(result_path.read_text()), None


def summarize(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of ``values``."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    smoke: bool = False,
    reps: int | None = None,
    force_fail_reps: tuple[int, ...] = (),
) -> dict:
    """Run one workload under the rep protocol and summarise it.

    ``reps`` fixes the number of timed reps instead of filling the window;
    ``force_fail_reps`` makes those reps' checks fail (self-test only).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    base = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "inputs": str(out_dir / f"{name}.inputs.pkl"),
        "result": str(out_dir / f"{name}.rep.json"),
        "spans": str(out_dir / f"{name}.spans.jsonl"),
        "trace": False,
        "rep": 0,
    }
    if name in spec.PREPARED:
        _, error = _spawn(dict(base, mode="prepare"))
        if error is not None:
            return {"workload": name, "seed": seed, "attempted": 0, "failed": 0,
                    "failures": [["prepare", error]], "end_to_end": None}

    def one_rep(index: int, traced: bool) -> dict:
        payload = dict(base, mode="rep", rep=index, trace=traced,
                       force_fail=index in force_fail_reps)
        result, error = _spawn(payload)
        if error is None:
            scale = spec.REFERENCE_PROBE_S / result["probe_s"]
            result["wall_s"] = result["wall_host_s"] * scale
            result["setup_s"] = result["setup_host_s"] * scale
            if result["problems"]:
                error = "check failed: " + "; ".join(result["problems"])
        return dict(result, rep=index, error=error)

    min_reps, window = (reps, 0.0) if reps else (spec.MIN_REPS, seconds)
    runs: list[dict] = []
    t_begin = time.perf_counter()
    while len(runs) < min_reps or time.perf_counter() - t_begin < window:
        runs.append(one_rep(len(runs) + 1, traced=False))
    traced = one_rep(len(runs) + 1, traced=True) if trace else None

    attempted = runs + ([traced] if traced else [])
    reference = next((r["digest"] for r in runs if "digest" in r), None)
    failures: list[list] = []
    for r in attempted:
        if r["error"] is None and r["digest"] != reference:
            r["error"] = "output digest differs from rep 1"
        if r["error"] is not None:
            failures.append([r["rep"], r["error"]])
    good = [r for r in runs if r["error"] is None]
    summary = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "size": spec.sizes(name, smoke),
        "attempted": len(attempted),
        "failed": len(failures),
        "failed_frac": len(failures) / len(attempted),
        "failures": failures,
        "digest": reference,
        "traced_digest": traced.get("digest") if traced else None,
        "end_to_end": None,
        "quality": good[0]["quality"] if good else {},
        "per_layer": None,
    }
    if not good:
        return summary
    summary["end_to_end"] = {m: summarize([r[m] for r in good]) for m in END_TO_END}
    summary["host"] = {m: summarize([r[m] for r in good]) for m in HOST}
    if traced is not None and traced["error"] is None:
        summary["traced_wall_host_s"] = traced["wall_host_s"]
        layers = layer_metrics(read_spans(Path(base["spans"])), traced["wall_host_s"])
        median = summary["end_to_end"]["wall_s"]["median"]
        layers["trace_overhead"] = traced["wall_s"] / median - 1.0
        summary["per_layer"] = layers
    return summary


def result_line(summary: dict, bench: dict, trace: bool) -> dict | None:
    """The one-line JSON result of a run, or None when no rep succeeded."""
    if summary["end_to_end"] is None or (trace and summary["per_layer"] is None):
        return None
    if trace:
        metrics = {m["name"]: {"value": summary["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": summary["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(summary: dict, bench: dict) -> str:
    """Human-readable lines: every metric by name with its unit."""
    name = summary["workload"]
    lines = [f"== {name}  seed {summary['seed']}  attempted {summary['attempted']}"
             f"  failed {summary['failed']}"]
    lines += [f"  FAILED rep {rep}: {error}" for rep, error in summary["failures"]]
    e2e = summary["end_to_end"]
    if e2e is None:
        return "\n".join(lines)
    for m in bench["end_to_end"]:
        s = e2e[m["name"]]
        lines.append(f"  {m['name']:<24} {_fmt(s['median'])} {m['unit']}"
                     f"  (median; q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}, n {s['n']})")
    for name_, s in summary["host"].items():
        lines.append(f"  {name_:<24} {_fmt(s['median'])} s  (median, unscaled)")
    lines.append(f"  {'failed_frac':<24} {_fmt(summary['failed_frac'])} ratio")
    for q, value in summary["quality"].items():
        lines.append(f"  {q:<24} {_fmt(value)} {spec.QUALITY[name][q]['unit']}")
    lines.append(f"  {'digest':<24} sha256 {summary['digest']}")
    layers = summary["per_layer"]
    if layers is not None:
        same = summary["traced_digest"] == summary["digest"]
        lines.append(f"  traced rep: host wall {_fmt(summary['traced_wall_host_s'])} s, "
                     f"digest {'equal' if same else 'DIFFERS'}")
        for m in bench["per_layer"]:
            lines.append(f"    {m['name']:<40} {_fmt(layers[m['name']])} {m['unit']}")
    return "\n".join(lines)


def _worse(base: float, new: float, better: str) -> float:
    """Share by which ``new`` is worse than ``base`` (negative: better)."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (new - base) / abs(base) if base else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric's two run sets."""
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    worse = _worse(base["median"], new["median"], better)
    if spread <= bound:
        return "regressed" if worse > bound else "ok"
    lo_new, hi_new = min(new["values"]), max(new["values"])
    lo_base, hi_base = min(base["values"]), max(base["values"])
    every_new_better = hi_new < lo_base if better == "lower" else lo_new > hi_base
    every_new_worse = (_worse(hi_base, lo_new, better) > bound if better == "lower"
                       else _worse(lo_base, hi_new, better) > bound)
    if every_new_better:
        return "ok"
    return "regressed" if every_new_worse else "unresolved"


def compare(base: dict, new: dict, bench: dict) -> tuple[list[str], bool]:
    """Compare two results files; returns report lines and whether all is ok."""
    lines = [f"{'workload':<11} {'metric':<22} {'base':>12} {'new':>12} {'ratio':>8}  verdict"]
    all_ok = True
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None or b["end_to_end"] is None or n["end_to_end"] is None:
            lines.append(f"{name:<11} missing from one side")
            all_ok = False
            continue
        rows = []
        for m in bench["end_to_end"]:
            sb, sn = b["end_to_end"][m["name"]], n["end_to_end"][m["name"]]
            v = verdict(sb, sn, m["better"], m["bound"])
            rows.append((m["name"], m["unit"], sb["median"], sn["median"], v))
        for q, meta in spec.QUALITY.get(name, {}).items():
            vb, vn = b["quality"][q], n["quality"][q]
            v = "regressed" if _worse(vb, vn, meta["better"]) > meta["bound"] else "ok"
            rows.append((q, meta["unit"], vb, vn, v))
        for metric, unit, mb, mn, v in rows:
            all_ok &= v != "regressed"
            lines.append(f"{name:<11} {metric:<22} {_fmt(mb):>10} {unit:<2}"
                         f"{_fmt(mn):>10} {unit:<2}{_fmt(mn / mb):>8}  {v}")
        if b["digest"] != n["digest"]:
            all_ok = False
            lines.append(f"{name:<11} digest differs: {b['digest']} vs {n['digest']}")
    return lines, all_ok
