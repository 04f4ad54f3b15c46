"""Extension bench: voltage scaling (the paper's stated future work).

Paper Sec. VII: "Future work envisages applying similar methodology to
improve power efficiency by lowering the voltage and tolerating the
associated increase in errors."  The fabric model carries a Vdd knob, so
the experiment is runnable here: at a fixed clock, lowering the supply
moves the multiplier into (and deeper into) the error regime, exactly as
over-clocking at fixed voltage does.
"""

from repro.characterization import error_trace
from repro.eval.report import render_table
from repro.fabric import OperatingConditions

from .conftest import run_once


def test_undervolting_mirrors_overclocking(ctx, benchmark):
    freq = 280.0  # error-free at nominal supply on this die
    vdds = (1.25, 1.2, 1.1, 1.0, 0.9)

    def run():
        rows = []
        for vdd in vdds:
            device = ctx.device.with_conditions(
                OperatingConditions(temperature_c=14.0, vdd=vdd)
            )
            r = error_trace(device, 222, freq, 1199, location=(0, 0), seed=0)
            rows.append((vdd, r.error_rate, r.error_variance))
        return rows

    rows = run_once(benchmark, run)

    print()
    print(
        render_table(
            ["Vdd (V)", "error rate", "error variance"],
            rows,
            title=f"Extension: undervolting at a fixed {freq:.0f} MHz clock",
        )
    )

    rates = [r[1] for r in rows]
    # Error rate grows monotonically as the supply drops...
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    # ...from error-free at/above nominal to clearly erroneous when deep
    # under-volted.
    assert rates[0] == 0.0
    assert rates[-1] > 0.01
