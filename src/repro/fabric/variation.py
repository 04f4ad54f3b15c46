"""Intra-die process-variation field generation.

Process variation on a fabricated die decomposes into (paper Sec. I and
refs [3], [5]):

* a **systematic** component — a smooth, die-wide spatial trend (lens
  aberration, reticle effects), modelled here as a random low-order 2-D
  polynomial surface;
* a **correlated random** component — spatially correlated perturbations,
  modelled as white noise smoothed by a Gaussian kernel of configurable
  correlation length;
* a **white** component — per-LE independent noise (random dopant
  fluctuation).

The field is a multiplicative delay factor per logic element, centred at
1.0: ``delay(le) = nominal_delay * field[y, x]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["VariationConfig", "VariationField", "generate_variation_field"]


@dataclass(frozen=True)
class VariationConfig:
    """Magnitudes of the three variation components.

    The defaults give a total sigma of roughly 4-6% with a systematic swing
    of ~8% corner-to-corner, in line with published 65 nm FPGA variability
    measurements (paper ref [5] reports delay spreads of this order).
    """

    systematic_amplitude: float = 0.04
    correlated_sigma: float = 0.025
    correlation_length: float = 8.0  # LEs
    white_sigma: float = 0.015
    polynomial_order: int = 2

    def __post_init__(self) -> None:
        if self.systematic_amplitude < 0 or self.correlated_sigma < 0 or self.white_sigma < 0:
            raise ConfigError("variation magnitudes must be non-negative")
        if self.correlation_length <= 0:
            raise ConfigError("correlation_length must be positive")
        if self.polynomial_order < 1:
            raise ConfigError("polynomial_order must be >= 1")


@dataclass(frozen=True)
class VariationField:
    """A realised per-LE multiplicative delay-factor field.

    Attributes
    ----------
    factors:
        Array of shape ``(rows, cols)``; ``factors[y, x]`` scales the
        nominal delay of the LE at column ``x``, row ``y``.
    config:
        The configuration that generated the field.
    """

    factors: np.ndarray
    config: VariationConfig

    @property
    def shape(self) -> tuple[int, int]:
        return self.factors.shape  # type: ignore[return-value]

    def factor_at(self, x: int, y: int) -> float:
        """Delay factor of the LE at column ``x``, row ``y``."""
        return float(self.factors[y, x])

    def window(self, x0: int, y0: int, width: int, height: int) -> np.ndarray:
        """Return the sub-field for a rectangular placement region."""
        rows, cols = self.factors.shape
        if not (0 <= x0 and 0 <= y0 and x0 + width <= cols and y0 + height <= rows):
            raise ConfigError(
                f"window ({x0},{y0},{width},{height}) outside device {cols}x{rows}"
            )
        return self.factors[y0 : y0 + height, x0 : x0 + width]

    def summary(self) -> dict[str, float]:
        """Spread statistics of the field (useful for device reports)."""
        f = self.factors
        return {
            "mean": float(f.mean()),
            "std": float(f.std()),
            "min": float(f.min()),
            "max": float(f.max()),
            "corner_to_corner": float(abs(f[0, 0] - f[-1, -1])),
        }


def _systematic_surface(
    rows: int, cols: int, order: int, amplitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Random low-order polynomial surface normalised to ``amplitude``."""
    y, x = np.mgrid[0:rows, 0:cols]
    # Normalised coordinates in [-1, 1] so coefficients are comparable.
    xs = 2.0 * x / max(cols - 1, 1) - 1.0
    ys = 2.0 * y / max(rows - 1, 1) - 1.0
    surface = np.zeros((rows, cols))
    for i in range(order + 1):
        for j in range(order + 1 - i):
            if i == 0 and j == 0:
                continue  # constant handled by re-centering below
            coeff = rng.normal()
            surface += coeff * (xs**i) * (ys**j)
    surface -= surface.mean()
    peak = np.abs(surface).max()
    if peak > 0:
        surface *= amplitude / peak
    return surface


def _gaussian_filter(x: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of a 2-D array with edge-replicated borders.

    Bit-identical to ``scipy.ndimage.gaussian_filter(x, sigma,
    mode="nearest")``: the same kernel truncated at ``int(4 sigma + 0.5)``
    taps, the same symmetric-tap summation order, axis 0 then axis 1, and a
    C-ordered result (the caller's ``std`` sums in memory order).
    """
    r = int(4.0 * sigma + 0.5)
    taps = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps**2)
    w = w / w.sum()
    for _ in range(2):  # axis 0, then axis 1 through the transpose
        n = len(x)
        p = np.pad(x, ((r, r), (0, 0)), mode="edge")
        acc = p[r : r + n] * w[r]
        for j in range(r, 0, -1):
            acc += (p[r - j : r - j + n] + p[r + j : r + j + n]) * w[r - j]
        x = acc.T
    return np.ascontiguousarray(x)


def generate_variation_field(
    rows: int,
    cols: int,
    config: VariationConfig,
    rng: np.random.Generator,
) -> VariationField:
    """Generate a device-specific variation field.

    Parameters
    ----------
    rows, cols:
        Device LE-grid dimensions.
    config:
        Component magnitudes.
    rng:
        Source of randomness; a fixed generator makes the device
        reproducible ("the same die").
    """
    if rows < 1 or cols < 1:
        raise ConfigError(f"device grid must be at least 1x1, got {cols}x{rows}")

    systematic = _systematic_surface(
        rows, cols, config.polynomial_order, config.systematic_amplitude, rng
    )

    white_for_corr = rng.normal(size=(rows, cols))
    correlated = _gaussian_filter(white_for_corr, config.correlation_length)
    cstd = correlated.std()
    if cstd > 0:
        correlated *= config.correlated_sigma / cstd
    else:  # degenerate 1x1 grid
        correlated = np.zeros((rows, cols))

    if config.white_sigma:
        white = rng.normal(scale=config.white_sigma, size=(rows, cols))
    else:
        white = np.zeros((rows, cols))

    factors = 1.0 + systematic + correlated + white
    # Physical delays cannot be arbitrarily fast; clip at a sane floor.
    np.clip(factors, 0.5, None, out=factors)
    return VariationField(factors=factors, config=config)
