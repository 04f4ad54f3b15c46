#!/usr/bin/env python
"""Quickstart: the full per-device optimisation flow in one script.

Walks the paper's Fig. 2 design flow end to end on a simulated device:

1. fabricate a device (the serial number *is* the die identity);
2. lint the design-under-test netlist (the flow's design-rule check);
3. characterise its generic multipliers under over-clocking;
4. fit the area model from synthesis runs;
5. run Algorithm 1 at the 310 MHz target;
6. compare the resulting designs against the classical KLT methodology,
   measured on the device (the "actual" domain).

Run time: ~1 minute with the default --scale 0.05.  Pass --jobs N (or
set REPRO_JOBS) to fan the characterisation out over N worker
processes — the numbers do not change, only the wall-clock.  Pass
--trace PATH to record the run with repro.obs: PATH.jsonl (sidecar),
PATH.json (open in chrome://tracing or Perfetto) and a metrics snapshot
next to them — the numbers still do not change.

    python examples/quickstart.py [--scale 0.05] [--serial 42] [--jobs 4]
    python examples/quickstart.py --trace /tmp/quickstart-trace
"""

from __future__ import annotations

import argparse

from repro import Domain, OptimizationFramework, TableISettings, make_device, obs
from repro.analysis import lint_netlist
from repro.cli_flow import export_telemetry, resolve_telemetry_paths
from repro.eval.report import render_table
from repro.framework import train_test_split
from repro.netlist.multipliers import unsigned_array_multiplier
from repro.parallel import resolve_jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's Table-I sample counts")
    parser.add_argument("--serial", type=int, default=42,
                        help="device serial number (selects the die)")
    parser.add_argument("--beta", type=float, default=4.0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a repro.obs trace of the run")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a repro.obs metrics snapshot")
    args = parser.parse_args()
    jobs = resolve_jobs(args.jobs)  # rejects jobs < 1 up front
    trace_path, metrics_path = resolve_telemetry_paths(args.trace, args.metrics)
    if trace_path or metrics_path:
        obs.enable_observability(trace=bool(trace_path),
                                 metrics=bool(metrics_path))
    try:
        _run(args, jobs)
    finally:
        # Export even when a stage fails: that trace is the one wanted.
        if trace_path or metrics_path:
            export_telemetry(trace_path, metrics_path)


def _run(args: argparse.Namespace, jobs: int) -> None:
    # 1. Fabricate the device.
    device = make_device(args.serial)
    report = device.report()
    print(f"device: {report['family']} serial={report['serial']} "
          f"({report['le_count']} LEs, variation std "
          f"{report['variation_std']:.3f})")

    # 2. Static-analysis gate on the design-under-test (also enforced
    #    inside SynthesisFlow.run; shown here for the lint report).
    settings_preview = TableISettings()
    dut = unsigned_array_multiplier(settings_preview.input_wordlength,
                                    max(settings_preview.coeff_wordlengths))
    print(lint_netlist(dut).summary())

    # 3. Build the framework (characterisation + area model are lazy).
    settings = TableISettings().scaled(args.scale)
    fw = OptimizationFramework(device, settings, seed=args.serial, jobs=jobs)
    print(f"characterising multipliers for word-lengths "
          f"{settings.coeff_wordlengths} (jobs={jobs}) ...")
    fw.characterize()
    fw.fit_area_model()

    # Data: train/test split from one generative model (Z^6 -> Z^3).
    x_train, x_test = train_test_split(settings, seed=0)

    # 5. Algorithm 1.
    print(f"running Algorithm 1 (beta={args.beta}, "
          f"{settings.clock_frequency_mhz:.0f} MHz target) ...")
    result = fw.optimize(x_train, beta=args.beta)

    # 6. Head-to-head on the device.
    rows = []
    for d in sorted(result.designs, key=lambda d: d.area_le):
        ev = fw.evaluate(d, x_test, Domain.ACTUAL)
        rows.append(("OF", str(d.wordlengths), f"{ev.area_le:.0f}", ev.mse))
    for d in fw.klt_baselines(x_train):
        ev = fw.evaluate(d, x_test, Domain.ACTUAL)
        rows.append(("KLT", str(d.wordlengths[0]), f"{ev.area_le:.0f}", ev.mse))
    print()
    print(render_table(
        ["family", "wordlength(s)", "area LE", "actual MSE @ 310 MHz"],
        rows,
        title="Over-clocked reconstruction error on this device",
    ))
    print("\nNote how the KLT curve degrades at large word-lengths (over-"
          "clocking errors) while the OF designs stay on model.")


if __name__ == "__main__":
    main()
