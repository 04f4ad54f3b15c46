"""Area model: LE cost of a generic multiplier vs word-length.

The optimiser explores word-lengths without synthesising every candidate;
it queries a model fitted once from synthesis reports (paper Sec. V-B2:
"possible due to the finite number of word-lengths that are considered").
Fig. 6 is the raw data (LE vs wl across placements/synthesis runs), Fig. 9
the predicted-vs-actual validation with a 95% confidence band.

The fit is polynomial least squares (default quadratic — an ``w_data x wl``
array multiplier grows essentially linearly in wl for fixed data width,
with a mild quadratic term from the carry structure), with a residual
sigma for the confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..fabric.device import FPGADevice
from ..netlist.mac import mac_block
from ..synthesis.flow import SynthesisFlow

__all__ = ["AreaSample", "AreaModel", "collect_area_samples", "fit_area_model"]


def _t_coverage(t: float, dof: int) -> float:
    """P(|T| <= t) for Student's t with integer ``dof``.

    Closed form of Abramowitz & Stegun 26.7.3 (odd dof) and 26.7.4 (even).
    """
    odd = dof % 2
    theta = math.atan(t / math.sqrt(dof))
    c2 = math.cos(theta) ** 2
    term, total = (math.cos(theta) if odd else 1.0), 0.0
    for k in range(1, dof // 2 + 1):
        total += term
        term *= (2 * k - 1 + odd) / (2 * k + odd) * c2
    inner = math.sin(theta) * total
    return 2.0 / math.pi * (theta + inner) if odd else inner


@dataclass(frozen=True)
class AreaSample:
    """One synthesis-run area observation."""

    wordlength: int
    logic_elements: int
    seed: int
    location: tuple[int, int]


@dataclass(frozen=True)
class AreaModel:
    """Fitted LE-vs-wordlength model with confidence intervals.

    Attributes
    ----------
    coeffs:
        Polynomial coefficients, highest degree first (``numpy.polyval``
        convention).
    residual_sigma:
        Standard deviation of *relative* fit residuals
        (``(observed - predicted) / predicted``).  Synthesis-run scatter is
        proportional to design size, so the confidence band scales with
        the prediction — without this the band under-covers large designs
        and over-covers small ones.
    wl_range:
        Word-length span the fit saw; queries outside raise in strict
        mode.
    """

    coeffs: np.ndarray
    residual_sigma: float
    wl_range: tuple[int, int]
    n_samples: int

    @property
    def _t95(self) -> float:
        """Two-sided 95% Student-t quantile at the fit's residual dof."""
        dof = max(1, self.n_samples - len(self.coeffs))
        # Bracket the quantile, then bisect until the midpoint is no new float.
        lo, hi = 0.0, 1.0
        while _t_coverage(hi, dof) < 0.95:
            lo, hi = hi, 2.0 * hi
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if _t_coverage(mid, dof) < 0.95 else (lo, mid)
        return hi

    def predict(self, wordlength: int | np.ndarray, strict: bool = False) -> np.ndarray:
        """Predicted LE count for word-length(s)."""
        wl = np.asarray(wordlength, dtype=float)
        if strict and (np.any(wl < self.wl_range[0]) or np.any(wl > self.wl_range[1])):
            raise ModelError(
                f"word-length {wordlength} outside fitted range {self.wl_range}"
            )
        return np.polyval(self.coeffs, wl)

    def confidence_interval(self, wordlength: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """95% band around the prediction (width proportional to size)."""
        mid = self.predict(wordlength)
        half = self._t95 * self.residual_sigma * np.abs(mid)
        return mid - half, mid + half

    def within_interval(self, wordlength: int, observed: int) -> bool:
        """Is an observed area inside the 95% band? (Fig. 9's criterion.)"""
        lo, hi = self.confidence_interval(wordlength)
        return bool(lo <= observed <= hi)

    def design_area(self, wordlength: int, k: int, overhead_le: int = 0) -> float:
        """Area of a K-output projection datapath at one word-length.

        One MAC per output dimension plus fixed control overhead — the
        high-level model of paper Sec. V-B2 ("the overall area of the
        design is estimated through a high-level model").
        """
        if k < 1:
            raise ModelError("k must be >= 1")
        return float(k * self.predict(wordlength) + overhead_le)


def collect_area_samples(
    device: FPGADevice,
    wordlengths: tuple[int, ...],
    w_data: int = 9,
    n_runs: int = 6,
    seed: int = 0,
) -> list[AreaSample]:
    """Synthesise MAC blocks across word-lengths/locations/seeds (Fig. 6).

    Each sample is one synthesis run of the ``w_data x wl`` MAC block at
    one location with one seed — the paper's "multiple placement and
    synthesis steps".  Each MAC netlist passes the lint gate once, on its
    first placement; the later placements of the same netlist skip it.
    """
    if n_runs < 1:
        raise ModelError("n_runs must be >= 1")
    if not wordlengths:
        raise ModelError("no wordlengths supplied")
    flow = SynthesisFlow(device)
    samples: list[AreaSample] = []
    for wl in wordlengths:
        if wl < 1:
            raise ModelError(f"invalid wordlength {wl}")
        netlist = mac_block(w_data, wl).compile()
        anchors = flow.available_anchors(netlist, n_runs)
        for run in range(n_runs):
            anchor = anchors[run % len(anchors)]
            placed = flow.run(
                netlist,
                anchor=anchor,
                seed=seed + 1000 * wl + run,
                lint=None if run == 0 else False,
            )
            samples.append(
                AreaSample(
                    wordlength=wl,
                    logic_elements=placed.area.logic_elements,
                    seed=seed + 1000 * wl + run,
                    location=anchor,
                )
            )
    return samples


def fit_area_model(samples: list[AreaSample], degree: int = 2) -> AreaModel:
    """Least-squares polynomial fit of LE count vs word-length."""
    if len(samples) < degree + 2:
        raise ModelError(
            f"need at least {degree + 2} samples for a degree-{degree} fit"
        )
    wl = np.asarray([s.wordlength for s in samples], dtype=float)
    le = np.asarray([s.logic_elements for s in samples], dtype=float)
    if np.unique(wl).size < degree + 1:
        raise ModelError("not enough distinct word-lengths for the fit degree")
    coeffs = np.polyfit(wl, le, deg=degree)
    predicted = np.polyval(coeffs, wl)
    if np.any(predicted <= 0):
        raise ModelError("area fit predicts non-positive LE counts")
    rel_residuals = (le - predicted) / predicted
    dof = max(1, len(samples) - (degree + 1))
    sigma = float(np.sqrt((rel_residuals**2).sum() / dof))
    return AreaModel(
        coeffs=coeffs,
        residual_sigma=sigma,
        wl_range=(int(wl.min()), int(wl.max())),
        n_samples=len(samples),
    )
