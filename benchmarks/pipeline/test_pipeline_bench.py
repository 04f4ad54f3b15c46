"""Self-test of the pipeline benchmark at ``--smoke`` size.

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q

One smoke run of all four workloads (one rep each plus a traced rep) backs
most tests; the forced-failure test runs two more reps of ``char_wide``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.pipeline import runner, spec

BENCH = json.loads(runner.BENCHMARK_JSON.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.pipeline", "run", "--smoke", "--out", str(out)],
        cwd=runner.ROOT, env=runner.rep_env(), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads((out / "results.json").read_text())
    return proc.stdout, results, out


def test_every_benchmark_metric_is_printed_with_its_unit(smoke):
    stdout, _, _ = smoke
    sections = re.split(r"^== ", stdout, flags=re.M)[1:]
    assert [s.split()[0] for s in sections] == list(spec.WORKLOADS)
    for section in sections:
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}(\s|$)"
            assert re.search(pattern, section, flags=re.M), (section.split()[0], m["name"])
        line = json.loads(section.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in BENCH["per_layer"]
        }


def test_traced_digest_equals_untraced_digest(smoke):
    _, results, out = smoke
    for name, summary in results["workloads"].items():
        assert summary["digest"] is not None
        assert summary["traced_digest"] == summary["digest"], name
        assert (out / f"{name}.spans.jsonl").stat().st_size > 0


def test_self_times_and_unattributed_add_up_to_traced_wall(smoke):
    _, results, _ = smoke
    for name, summary in results["workloads"].items():
        layers = summary["per_layer"]
        wall = summary["traced_wall_host_s"]
        attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        accounted = attributed + layers["unattributed_s"]
        assert accounted == pytest.approx(wall - layers["trace_bookkeeping_s"], abs=1e-9)
        assert accounted == pytest.approx(wall, rel=0.02), name


def test_a_rep_failing_its_check_raises_failed_frac(tmp_path):
    summary = runner.run_workload(
        "char_wide", spec.DEFAULT_SEED, 0.0, False, tmp_path,
        smoke=True, reps=2, force_fail_reps=(2,),
    )
    assert summary["failed_frac"] == 0.5
    assert summary["failures"] == [[2, "check failed: check forced to fail"]]
    assert runner.result_line(summary, BENCH, trace=False)["correct"] is False


def test_prepared_workloads_match_the_workload_table():
    from benchmarks.pipeline.workloads import WORKLOADS

    assert tuple(WORKLOADS) == spec.WORKLOADS
    assert {n for n, w in WORKLOADS.items() if w.prepare} == set(spec.PREPARED)


def test_compare_verdicts_and_digest_flag():
    def results(walls, digest="d"):
        e2e = {m["name"]: runner.summarize([1.0, 1.0, 1.0]) for m in BENCH["end_to_end"]}
        e2e["wall_s"] = runner.summarize(walls)
        quality = {"throughput_gain": 2.0, "of_vs_klt_mse_ratio": 80.0}
        return {"workloads": {"headline": {"end_to_end": e2e, "quality": quality,
                                           "digest": digest}}}

    base = results([4.0, 4.0, 4.0, 4.0])
    lines, ok = runner.compare(base, results([4.1, 4.1, 4.1, 4.1]), BENCH)
    assert ok and "regressed" not in "\n".join(lines)
    lines, ok = runner.compare(base, results([5.0, 5.0, 5.0, 5.0]), BENCH)
    assert not ok and any("wall_s" in ln and ln.endswith("regressed") for ln in lines)
    lines, ok = runner.compare(base, results([3.0, 4.0, 5.0, 6.0]), BENCH)
    assert any("wall_s" in ln and ln.endswith("unresolved") for ln in lines)
    lines, ok = runner.compare(base, results([4.0, 4.0, 4.0, 4.0], digest="e"), BENCH)
    assert not ok and any("digest differs" in ln for ln in lines)


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(spec.WORKLOADS)
    assert BENCH["run_seconds"] == spec.RUN_SECONDS
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(runner.BENCHMARK_JSON, tmp_path)
    shutil.copytree(runner.ROOT / "benchmarks" / "pipeline", tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # Without PYTHONPATH, so no other copy of the package can be imported.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.pipeline", "run", "--workload", "headline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
