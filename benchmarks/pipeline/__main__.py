"""Command line of the pipeline benchmark.

    python -m benchmarks.pipeline run [--workload W] [--seed S] [--seconds N]
                                      [--trace 0|1] [--out DIR] [--smoke]
    python -m benchmarks.pipeline compare BASE.json NEW.json

``run`` prints every metric by name with its unit, then one JSON line per
workload (the last line of output): ``correct``, ``attempted``, ``failed``
and ``metrics`` — BENCHMARK.json's end-to-end metrics with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  It writes ``results.json`` and
one span JSONL per traced workload to ``--out``, and exits 1 if any rep
failed, 2 if the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import runner, spec


def _run(args: argparse.Namespace, bench: dict) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    trace = bool(args.trace)
    summaries = {}
    status = 0
    for name in names:
        summary = runner.run_workload(
            name, args.seed, args.seconds, trace, args.out,
            smoke=args.smoke, reps=1 if args.smoke else None,
        )
        summaries[name] = summary
        print(runner.report(summary, bench), flush=True)
        line = runner.result_line(summary, bench, trace)
        if line is None or not line["correct"]:
            status = 1
        if line is not None:
            print(json.dumps(line), flush=True)
    results = {"seed": args.seed, "smoke": args.smoke, "trace": trace, "workloads": summaries}
    (args.out / "results.json").write_text(json.dumps(results, indent=1))
    return status


def _compare(args: argparse.Namespace, bench: dict) -> int:
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    lines, all_ok = runner.compare(base, new, bench)
    print("\n".join(lines))
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.pipeline",
        description="End-to-end benchmark of the paper's pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=spec.WORKLOADS, help="default: all four")
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                     help="measuring window of each workload's timed reps")
    run.add_argument("--trace", type=int, choices=(0, 1), default=1,
                     help="1: add one traced rep and report per-layer metrics")
    run.add_argument("--out", type=Path, default=runner.DEFAULT_OUT)
    run.add_argument("--smoke", action="store_true", help="tiny inputs, one rep")
    cmp = sub.add_parser("compare", help="compare two results.json files")
    cmp.add_argument("base", type=Path)
    cmp.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    try:
        bench = runner.load_benchmark()
    except runner.BenchError as exc:
        print(f"pipeline benchmark: {exc}", file=sys.stderr)
        return 2
    return _run(args, bench) if args.command == "run" else _compare(args, bench)


if __name__ == "__main__":
    sys.exit(main())
