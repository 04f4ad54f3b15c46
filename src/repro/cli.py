"""Command-line entry point: ``repro-experiment <name>``.

Runs one of the paper's experiments at a configurable scale and prints
the figure's numeric series as ASCII tables.  The ``lint`` subcommand
instead runs the netlist static analyser over a generated design and
reports its diagnostics (text or JSON); the ``faults`` subcommand
describes/validates a chaos fault-injection plan; the ``obs`` subcommand
prints the telemetry reference or summarises exported trace/metrics
artefacts; the ``audit`` subcommand runs the determinism and
concurrency sanitizer (DT rules) over repro's own source.

Examples
--------
::

    repro-experiment fig5 --scale 0.05 --seed 42
    repro-experiment fig11 --scale 0.1
    repro-experiment table1
    repro-experiment runtime
    repro-experiment lint ccm 93 8
    repro-experiment lint unsigned_multiplier 8 8 --format json
    repro-experiment analyze ccm 93 8
    repro-experiment analyze unsigned_multiplier 8 8 --assume b=222 --sta
    repro-experiment faults describe --plan '{"seed": 7, "specs": [...]}'
    repro-experiment faults validate --plan @plan.json
    repro-experiment obs reference
    repro-experiment obs trace run.jsonl
    repro-experiment obs metrics run.metrics.json
    repro-experiment audit src/repro
    repro-experiment audit --rules
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis import LintConfig, lint_netlist, rule_table
from .eval import figures, tables
from .eval.context import ExperimentContext
from .eval.report import render_table
from .errors import ConfigError, ReproError
from .netlist.generators import GENERATORS, generate

__all__ = ["main"]

_FIGURES = {
    "fig1": figures.fig1,
    "fig4": figures.fig4,
    "fig5": figures.fig5,
    "fig6": figures.fig6,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "fig9": figures.fig9,
    "fig10": figures.fig10,
    "fig11": figures.fig11,
    "headline": figures.headline,
}


def _print_result(name: str, result: dict) -> None:
    if name == "headline":
        rows = [
            (r["configuration"], r["freq_mhz"], r["mse"], r["area_le"])
            for r in result["rows"]
        ]
        print(
            render_table(
                ["configuration", "clock MHz", "actual MSE", "area LE"],
                rows,
                title="Headline: throughput vs errors",
            )
        )
        print(
            f"throughput gain {result['throughput_gain']:.2f}x; OF vs KLT @ "
            f"target MSE ratio {result['of_vs_klt_at_target_mse_ratio']:.1f}x"
        )
        return
    if name == "fig8":
        rows = [
            (
                r["wordlength"],
                r["tool_fmax_mhz"],
                r["device_sta_fmax_mhz"],
                r["datapath_fmax_mhz"],
                r["error_onset_range_mhz"][1],
            )
            for r in result["rows"]
        ]
        print(
            render_table(
                ["wl", "tool Fmax", "STA Fmax", "data-path Fmax", "fC"],
                rows,
                title="Fig. 8: maximum clock frequencies vs word-length",
            )
        )
        print(
            f"target {result['target_freq_mhz']} MHz = "
            f"{result['overclock_factor_vs_9bit_tool']:.2f}x the 9-bit tool Fmax"
        )
        return
    if name == "fig10":
        rows = [
            (
                str(r["wordlengths"]),
                r["area_le"],
                r["predicted_mse"],
                r["simulated_mse"],
                r["actual_mse"],
            )
            for r in result["rows"]
        ]
        print(
            render_table(
                ["wordlengths", "area LE", "predicted", "simulated", "actual"],
                rows,
                title=f"Fig. 10: domains @ {result['freq_mhz']} MHz (beta={result['beta']})",
            )
        )
        return
    if name == "fig11":
        rows = [
            ("OF", str(r["wordlengths"]), r["area_le"], r["actual_mse"])
            for r in result["of_rows"]
        ] + [
            ("KLT", r["wordlength"], r["area_le"], r["actual_mse"])
            for r in result["klt_rows"]
        ]
        print(
            render_table(
                ["family", "wl", "area LE", "actual MSE"],
                rows,
                title=f"Fig. 11: OF vs KLT @ {result['freq_mhz']} MHz",
            )
        )
        print(
            f"geometric-mean improvement at comparable area: "
            f"{result['geometric_mean_improvement']:.1f}x"
        )
        return
    # Generic fallback: JSON (numpy arrays summarised).
    def default(o: object) -> object:
        if isinstance(o, np.ndarray):
            return {
                "shape": list(o.shape),
                "mean": float(o.mean()),
                "min": float(o.min()),
                "max": float(o.max()),
            }
        if isinstance(o, (np.integer, np.floating)):
            return o.item()
        return str(o)

    print(json.dumps(result, indent=2, default=default))


def _lint_main(argv: list[str]) -> int:
    """``lint`` subcommand: run the static analyser over a generated design."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment lint",
        description="Lint a generated netlist and report NLxxx diagnostics.",
        epilog="Rules: "
        + "; ".join(f"{rid} {name} ({sev})" for rid, name, sev, _ in rule_table()),
    )
    parser.add_argument(
        "generator",
        choices=sorted(GENERATORS),
        help="registered design-under-test generator",
    )
    parser.add_argument(
        "params",
        nargs="*",
        type=int,
        help="integer generator parameters (e.g. widths, coefficient)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report rendering (default: text)",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="NLxxx",
        help="rule ID to skip (repeatable)",
    )
    parser.add_argument(
        "--max-fanout", type=int, default=None, help="NL009 fanout budget"
    )
    parser.add_argument(
        "--max-depth", type=int, default=None, help="NL010 depth budget"
    )
    parser.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="severity at which the exit code becomes 1 (default: error)",
    )
    args = parser.parse_args(argv)

    try:
        netlist = generate(args.generator, *args.params)
        config = LintConfig.build(
            disabled=args.disable,
            max_fanout=args.max_fanout,
            max_depth=args.max_depth,
            fail_on=args.fail_on,
        )
    except (ReproError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = lint_netlist(netlist, config)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok(config.fail_on) else 1


def _parse_assumption(spec: str) -> tuple[str, "int | tuple[int, int]"]:
    """Parse one ``BUS=V`` or ``BUS=LO:HI`` assumption argument."""
    if "=" not in spec:
        raise ValueError(f"assumption {spec!r} is not BUS=V or BUS=LO:HI")
    bus, _, value = spec.partition("=")
    if ":" in value:
        lo, _, hi = value.partition(":")
        return bus, (int(lo), int(hi))
    return bus, int(value)


def _analyze_main(argv: list[str]) -> int:
    """``analyze`` subcommand: word-level dataflow / lint / timing report."""
    from .analysis import Severity, analyze_dataflow, lint_netlist
    from .analysis.sensitization import sensitized_sta

    parser = argparse.ArgumentParser(
        prog="repro-experiment analyze",
        description="Word-level static analysis of a generated netlist: "
        "known-bits/range dataflow, its lint rules, and false-path-aware STA.",
        epilog="Assumptions pin input buses, e.g. --assume b=222 (the "
        "characterised multiplicand) or --assume a=0:15 (a range).",
    )
    parser.add_argument(
        "generator",
        choices=sorted(GENERATORS),
        help="registered design-under-test generator",
    )
    parser.add_argument(
        "params",
        nargs="*",
        type=int,
        help="integer generator parameters (e.g. widths, coefficient)",
    )
    parser.add_argument(
        "--assume",
        action="append",
        default=[],
        metavar="BUS=V|BUS=LO:HI",
        help="input-bus value or range assumption (repeatable)",
    )
    parser.add_argument(
        "--sta",
        action="store_true",
        help="place the design and report worst-case vs sensitisation-"
        "aware per-output-bit timing under the assumptions",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report rendering (default: text)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="device serial / placement seed"
    )
    args = parser.parse_args(argv)

    try:
        assumptions = dict(_parse_assumption(s) for s in args.assume)
        netlist = generate(args.generator, *args.params)
        # Clamped dataflow stays sound under contradictory assumptions;
        # the contradiction itself is WL001's job (reported via lint).
        flow_result = analyze_dataflow(netlist, assumptions or None, clamp=True)
        report = lint_netlist(netlist, assumptions=assumptions or None)
    except (ReproError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload: dict = {"dataflow": flow_result.as_dict(), "lint": report.to_dict()}
    failed = not report.ok(Severity.ERROR)

    if args.sta:
        try:
            from .fabric import make_device
            from .synthesis.flow import SynthesisFlow

            placed = SynthesisFlow(make_device(args.seed)).run(
                netlist, seed=args.seed
            )
            worst = placed.device_sta()
            pruned = sensitized_sta(placed, assumptions or None)
            payload["sta"] = {
                "setup_ns": worst.setup_ns,
                "worst_case": {
                    bus: [round(float(a) + worst.setup_ns, 4) for a in arr]
                    for bus, arr in worst.output_arrival.items()
                },
                "sensitized": {
                    bus: [round(float(a) + pruned.setup_ns, 4) for a in arr]
                    for bus, arr in pruned.output_arrival.items()
                },
                "worst_fmax_mhz": round(worst.fmax_mhz, 3),
                "sensitized_fmax_mhz": round(pruned.fmax_mhz, 3),
            }
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        df = payload["dataflow"]
        print(f"dataflow {df['netlist']!r}: {df['n_known_bits']} known bit(s), "
              f"{df['n_static_live_luts']} static live LUT(s)")
        for bus, rng in df["output_ranges"].items():
            known = df["known_output_bits"][bus]
            print(f"  output {bus!r}: range [{rng[0]}, {rng[1]}]"
                  + (f", fixed bits {known}" if known else ""))
        print(report.to_text())
        if "sta" in payload:
            sta = payload["sta"]
            print(f"sta: worst-case fmax {sta['worst_fmax_mhz']} MHz, "
                  f"sensitised fmax {sta['sensitized_fmax_mhz']} MHz")
            for bus in sorted(sta["worst_case"]):
                print(f"  {bus!r} min period ns/bit:")
                print(f"    worst-case: {sta['worst_case'][bus]}")
                print(f"    sensitised: {sta['sensitized'][bus]}")
    return 1 if failed else 0


def _faults_main(argv: list[str]) -> int:
    """``faults`` subcommand: describe or validate a chaos fault plan."""
    from .faults import FAULT_KINDS, REPRO_FAULTS_ENV, FaultPlan

    parser = argparse.ArgumentParser(
        prog="repro-experiment faults",
        description="Describe or validate a deterministic fault-injection "
        "plan (chaos testing of the characterisation engine).",
        epilog="Fault kinds: " + ", ".join(FAULT_KINDS)
        + ". Plans are JSON — inline or @path; see docs/resilience.md.",
    )
    parser.add_argument(
        "action",
        choices=["describe", "validate"],
        help="describe: summarise the plan; validate: parse-check only",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="JSON|@FILE",
        help=f"fault plan (default: ${REPRO_FAULTS_ENV})",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report rendering (default: text)",
    )
    args = parser.parse_args(argv)

    try:
        if args.plan is not None:
            plan = FaultPlan.from_spec(args.plan)
        else:
            plan = FaultPlan.from_env()
            if plan is None:
                print(
                    f"error: no fault plan (pass --plan or set ${REPRO_FAULTS_ENV})",
                    file=sys.stderr,
                )
                return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "validate":
        print(f"valid fault plan: {len(plan.specs)} spec(s), seed {plan.seed}")
        return 0
    if args.format == "json":
        print(json.dumps(plan.as_dict(), indent=2))
    else:
        print(plan.describe())
    return 0


def _audit_main(argv: list[str]) -> int:
    """``audit`` subcommand: determinism/concurrency audit of repro source."""
    from .analysis.sanitizer import audit_paths, dt_rule_table_markdown
    from .cli_flow import export_telemetry, resolve_telemetry_paths
    from .errors import AnalysisError
    from .obs import runtime as obs

    parser = argparse.ArgumentParser(
        prog="repro-experiment audit",
        description="Audit Python source for determinism and concurrency "
        "hazards (DT rules): ambient RNG, clock/env reads, hash-order "
        "iteration, non-atomic shared-disk writes. Every rule applies to "
        "every function; only the allowance policy and justified "
        "`# repro: allow[DTnnn]` pragmas accept an occurrence (see "
        "docs/static_analysis.md). Exit 0 clean, 1 findings, 2 when a "
        "path cannot be read or parsed.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to audit (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report rendering (default: text)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the DT rule reference table and exit",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a repro.obs trace of the audit: PATH.jsonl + PATH.json "
        "(chrome trace_event) plus a metrics snapshot",
    )
    args = parser.parse_args(argv)

    if args.rules:
        print(dt_rule_table_markdown())
        return 0

    trace_path, metrics_path = resolve_telemetry_paths(args.trace, None)
    if trace_path or metrics_path:
        obs.enable_observability(
            trace=bool(trace_path), metrics=bool(metrics_path)
        )
    try:
        with obs.span("audit.run"):
            report = audit_paths(args.paths or ["src/repro"])
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if trace_path or metrics_path:
            export_telemetry(trace_path, metrics_path)
            obs.disable_observability()
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.clean else 1


def _obs_main(argv: list[str]) -> int:
    """``obs`` subcommand: telemetry reference and artefact inspection."""
    from .errors import ObservabilityError
    from .obs import (
        load_metrics_snapshot,
        load_trace_jsonl,
        summarize_spans,
        telemetry_reference_markdown,
    )

    parser = argparse.ArgumentParser(
        prog="repro-experiment obs",
        description="Inspect repro.obs telemetry: print the span/metric "
        "reference (generated from the catalogue) or summarise exported "
        "trace/metrics artefacts (see docs/observability.md).",
    )
    parser.add_argument(
        "action",
        choices=["reference", "trace", "metrics"],
        help="reference: print the telemetry catalogue; trace: summarise "
        "a JSONL trace sidecar; metrics: print the counters of a metrics snapshot",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="artefact path (required for trace/metrics)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report rendering (default: text)",
    )
    args = parser.parse_args(argv)

    if args.action == "reference":
        print(telemetry_reference_markdown())
        return 0
    if args.path is None:
        print(f"error: obs {args.action} requires a path", file=sys.stderr)
        return 2
    try:
        if args.action == "trace":
            rows = summarize_spans(load_trace_jsonl(args.path))
            if args.format == "json":
                print(json.dumps(rows, indent=2))
            else:
                print(render_table(
                    ["span", "count", "total s", "mean s", "max s"],
                    [(r["name"], r["count"], r["total_s"], r["mean_s"], r["max_s"])
                     for r in rows],
                    title=f"trace summary: {args.path}",
                ))
            return 0
        snapshot = load_metrics_snapshot(args.path)
        if args.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            for name, value in sorted(snapshot["counters"].items()):
                print(f"{name} = {value}")
        return 0
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return _lint_main(argv[1:])
    if argv and argv[0] == "analyze":
        return _analyze_main(argv[1:])
    if argv and argv[0] == "audit":
        return _audit_main(argv[1:])
    if argv and argv[0] == "faults":
        return _faults_main(argv[1:])
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate a figure/table of the IPDPSW'14 over-clocked "
        "linear-projection paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_FIGURES) + ["table1", "runtime", "all"],
        help="which experiment to run",
    )
    parser.add_argument("--seed", type=int, default=42, help="root seed / device serial")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="fraction of the paper's Table-I sample counts (1.0 = full)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "table1":
        _print_result("table1", tables.table1())
        return 0

    try:
        ctx = ExperimentContext.get(seed=args.seed, scale=args.scale)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.experiment == "runtime":
        _print_result("runtime", tables.runtime_model_table(ctx))
        return 0
    if args.experiment == "all":
        for name, fn in _FIGURES.items():
            print(f"==== {name} ====")
            _print_result(name, fn(ctx))
        _print_result("runtime", tables.runtime_model_table(ctx))
        return 0
    _print_result(args.experiment, _FIGURES[args.experiment](ctx))
    return 0


if __name__ == "__main__":
    sys.exit(main())
