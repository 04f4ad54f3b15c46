#!/usr/bin/env python
"""Eigenfaces-style dimensionality reduction on an over-clocked device.

Two take-aways, both straight from the paper's motivation: linear
projections tolerate datapath errors gracefully (recognition accuracy
survives deep over-clocking — Sec. I: projections "aren't critical to
errors in many parts of their designs"), and the optimisation framework
finds designs with lower reconstruction error at less area than the
classical KLT flow once the clock is pushed into the error regime.

The paper motivates its framework with "applications with high dimensions
(i.e. face recognition)" (Sec. V).  This example projects 6x6 face-like
image patches (36 dimensions) down to a handful of eigen-coefficients on
the over-clocked datapath and runs a nearest-neighbour identity check on
the projected features — the classic eigenfaces pipeline.

It compares recognition accuracy at the 310 MHz target when the projection
matrix comes from (a) the classical KLT methodology and (b) the
over-clocking-aware optimisation framework.

    python examples/face_recognition.py [--scale 0.05]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import Domain, OptimizationFramework, TableISettings, make_device
from repro.core.design import LinearProjectionDesign
from repro.datasets import face_like_patches
from repro.eval.report import render_table
from repro.framework import characterization_config


def make_identities(n_ids: int, samples_per_id: int, rng: np.random.Generator):
    """Face-like patches clustered around per-identity prototypes.

    All prototypes are drawn in one call (the generator centres across
    samples, so they share a population mean) and each observation adds a
    small within-identity perturbation.
    """
    height = width = 6
    protos = face_like_patches(
        height, width, n_ids, np.random.default_rng(1000), noise=0.0
    )  # (36, n_ids)
    gallery = []
    labels = []
    for ident in range(n_ids):
        for _ in range(samples_per_id):
            gallery.append(protos[:, ident] + 0.08 * rng.normal(size=protos.shape[0]))
            labels.append(ident)
    x = np.stack(gallery, axis=1)
    x /= np.abs(x).max()
    return x, np.asarray(labels)


def projected_features(
    fw: OptimizationFramework, design: LinearProjectionDesign, x: np.ndarray, seed: int
) -> np.ndarray:
    """Run the design's datapath on the device and return the factors F.

    This is what the deployed system would hand to the classifier: the
    over-clocked multiplier lanes' outputs, accumulated per column —
    including any timing errors the clock provokes.
    """
    from repro.circuits.datapath import ProjectionDatapath
    from repro.core.quantize import quantize_data

    datapath = ProjectionDatapath(design, fw.device, anchor=(0, 0), seed=seed)
    q = quantize_data(x, design.w_data)
    peak = float(np.abs(x).max())
    n = x.shape[1]
    factors = np.empty((design.k, n))
    for k, wl in enumerate(design.wordlengths):
        run = datapath.run_lane(
            k, q.magnitudes, design.freq_mhz, np.random.default_rng(seed + k)
        )
        sign = (q.signs * design.signs[:, k][:, None]).T.reshape(-1)
        val = sign * run.captured_products * peak * 2.0 ** (-(design.w_data + wl))
        factors[k] = val.reshape(n, design.p).sum(axis=1)
    return factors


def nn_accuracy(train_f, train_y, test_f, test_y) -> float:
    """1-nearest-neighbour accuracy in feature space."""
    d2 = ((test_f.T[:, None, :] - train_f.T[None, :, :]) ** 2).sum(axis=2)
    pred = train_y[np.argmin(d2, axis=1)]
    return float((pred == test_y).mean())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--serial", type=int, default=7)
    parser.add_argument("--n-ids", type=int, default=16)
    parser.add_argument("--freq", type=float, default=375.0,
                        help="target clock in MHz (340 = deep over-clock)")
    args = parser.parse_args()

    p = 36  # 6x6 patches
    k = 4
    settings = TableISettings(
        p=p,
        k=k,
        clock_frequency_mhz=args.freq,
        n_characterization=TableISettings().scaled(args.scale).n_characterization,
        n_train=60,
        n_test=200,
        burn_in=TableISettings().scaled(args.scale).burn_in,
        n_samples=TableISettings().scaled(args.scale).n_samples,
        q=3,
        min_coeff_wordlength=4,
        max_coeff_wordlength=8,
    )
    device = make_device(args.serial)
    char = characterization_config(settings, 1)
    fw = OptimizationFramework(device, settings, char_config=char, seed=args.serial)

    rng = np.random.default_rng(0)
    x_train, y_train = make_identities(args.n_ids, 6, rng)
    x_test, y_test = make_identities(args.n_ids, 4, np.random.default_rng(99))

    print(f"gallery: {x_train.shape[1]} faces of {args.n_ids} identities, "
          f"{p}-dim patches -> {k} eigen-coefficients @ "
          f"{settings.clock_frequency_mhz:.0f} MHz")
    print("characterising + optimising ...")
    of_design = fw.optimize(x_train, beta=4.0).best_design()
    klt_designs = fw.klt_baselines(x_train)

    rows = []
    for name, design in [("OF", of_design)] + [
        (f"KLT-{d.wordlengths[0]}", d) for d in klt_designs[-2:]
    ]:
        ev = fw.evaluate(design, x_test, Domain.ACTUAL)
        f_train = projected_features(fw, design, x_train, seed=1)
        f_test = projected_features(fw, design, x_test, seed=1)
        acc = nn_accuracy(f_train, y_train, f_test, y_test)
        rows.append((name, str(design.wordlengths), f"{ev.area_le:.0f}", ev.mse, f"{acc:.2%}"))

    print()
    print(render_table(
        ["design", "wordlengths", "area LE", "actual MSE", "NN accuracy"],
        rows,
        title="Eigenfaces on the over-clocked datapath",
    ))


if __name__ == "__main__":
    main()
