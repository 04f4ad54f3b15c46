#!/usr/bin/env python
"""Walkthrough of the multiplier characterisation framework (paper Sec. III).

Demonstrates, on two different simulated dies:

* the frequency/location/multiplicand sweep of a placed multiplier at
  PLL-synthesised clocks, and the E(m, f) structure
  (errors cumulative in frequency; sparse multiplicands benign; placement
  changes the pattern);
* persistence of the results to an .npz archive;
* device-to-device differences — the reason characterisation is
  *per device*;
* re-characterisation after aging (paper Sec. II: reconfigurability lets
  you re-characterise and re-optimise as the device degrades).

    python examples/device_characterization.py [--samples 400]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import OperatingConditions, make_device
from repro.characterization import (
    CharacterizationConfig,
    CharacterizationResult,
    characterize_multiplier,
    error_trace,
)
from repro.eval.report import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=400)
    args = parser.parse_args()

    freqs = (270.0, 300.0, 330.0, 360.0)
    cfg = CharacterizationConfig(
        freqs_mhz=freqs,
        n_samples=args.samples,
        multiplicands=tuple(range(0, 256, 4)),
        n_locations=2,
    )

    # --- two dies of the same family ---------------------------------
    dev_a = make_device(serial=1001)
    dev_b = make_device(serial=2002)
    print("characterising an 8x8 generic multiplier on two dies ...")
    res_a = characterize_multiplier(dev_a, 8, 8, cfg, seed=0)
    res_b = characterize_multiplier(dev_b, 8, 8, cfg, seed=0)

    rows = []
    for fi, f in enumerate(res_a.freqs_mhz):
        rows.append(
            (
                f"{f:.0f}",
                float(res_a.variance[:, :, fi].mean()),
                float(res_b.variance[:, :, fi].mean()),
            )
        )
    print()
    print(
        render_table(
            ["freq MHz", "mean E(m,f) die A", "mean E(m,f) die B"],
            rows,
            title="Errors are cumulative in frequency - and device specific",
        )
    )

    # --- the popcount effect (Fig. 5) ---------------------------------
    top = res_a.variance_grid(None)[:, -1]
    pop = np.array([bin(m).count("1") for m in res_a.multiplicands])
    rows = [
        (c, float(top[pop == c].mean()))
        for c in sorted(set(pop.tolist()))
        if (pop == c).any()
    ]
    print()
    print(
        render_table(
            ["popcount(m)", "mean variance @ top freq"],
            rows,
            title="Sparse multiplicands err less (paper Fig. 5)",
        )
    )

    # --- location dependence (Fig. 4) ----------------------------------
    t1 = error_trace(dev_a, 222, 330.0, args.samples, location=res_a.locations[0], seed=1)
    t2 = error_trace(dev_a, 222, 330.0, args.samples, location=res_a.locations[1], seed=2)
    print()
    print(
        f"multiplicand 222 @ 330 MHz: error rate {t1.error_rate:.4f} at "
        f"{res_a.locations[0]} vs {t2.error_rate:.4f} at {res_a.locations[1]}"
    )

    # --- persistence ----------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "die_a_8x8.npz"
        res_a.save(path)
        reloaded = CharacterizationResult.load(path)
        assert np.array_equal(reloaded.variance, res_a.variance)
        print(f"\nresults archived and reloaded from {path.name} "
              f"({path.stat().st_size} bytes)")

    # --- aging + re-characterisation -----------------------------------
    aged = dev_a.with_conditions(OperatingConditions(temperature_c=14.0, aging_years=8.0))
    res_aged = characterize_multiplier(aged, 8, 8, cfg, seed=0)
    fresh_mean = float(res_a.variance[:, :, 2].mean())
    aged_mean = float(res_aged.variance[:, :, 2].mean())
    print(
        f"\nafter 8 years of aging, mean E(m, {freqs[2]:.0f} MHz) grows "
        f"{fresh_mean:.3g} -> {aged_mean:.3g}; re-characterisation captures "
        "the drift so designs can be re-optimised (paper Sec. II)."
    )


if __name__ == "__main__":
    main()
