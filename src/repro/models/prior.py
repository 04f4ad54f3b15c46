"""Coefficient prior formation (paper eq. 6, Fig. 7).

The prior injects the characterised over-clocking behaviour into the
Bayesian estimation of the projection matrix: coefficient values whose
multiplications err badly at the target frequency get low prior mass,

``g(E(lambda, f)) = cE * (1 + E(lambda, f))^(-beta)``

with ``cE`` normalising the mass to 1 over the coefficient grid and the
hyper-parameter ``beta`` scaling how hard errors are penalised (beta~0.1:
nearly flat; beta=4: error-prone values effectively excluded — Fig. 7).

Coefficients are sign-magnitude fixed point: a word-length ``wl`` grid is
``{ s * m / 2**wl : m in [0, 2**wl), s in {-1, +1} }``; the sign costs an
XOR and does not affect timing, so both signs of a magnitude share the
characterised ``E(m, f)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ModelError
from .error_model import ErrorModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.sensitization import CoefficientTimingProfile

__all__ = ["CoefficientPrior", "prior_over_magnitudes"]


def _mirror_signed(
    mags: np.ndarray, variance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signed grid: negative magnitudes mirrored, zero not duplicated."""
    if mags[0] == 0:
        neg_m, neg_v = -mags[::-1][:-1], variance[::-1][:-1]
    else:
        neg_m, neg_v = -mags[::-1], variance[::-1]
    return np.concatenate([neg_m, mags]), np.concatenate([neg_v, variance])


def prior_over_magnitudes(
    variance: np.ndarray, beta: float
) -> np.ndarray:
    """Normalised prior mass over a magnitude grid from variances.

    Pure function implementing eq. (6); exposed for tests and plots.
    """
    if beta <= 0:
        raise ModelError("beta must be > 0 (Alg. 1 'Require' clause)")
    v = np.asarray(variance, dtype=float)
    if np.any(v < 0):
        raise ModelError("variances must be non-negative")
    mass = np.power(1.0 + v, -beta)
    total = mass.sum()
    if not np.isfinite(total) or total <= 0:
        raise ModelError("degenerate prior: no coefficient has positive mass")
    return mass / total


@dataclass(frozen=True)
class CoefficientPrior:
    """The prior over the signed coefficient grid of one word-length.

    Attributes
    ----------
    wordlength:
        Magnitude word-length ``wl``.
    freq_mhz:
        Target clock frequency the prior was formed for.
    beta:
        Error-penalty hyper-parameter.
    magnitudes:
        Integer magnitude grid ``[0, 2**wl)``.
    values:
        The full signed coefficient grid in [-1, 1), ascending.
    mass:
        Prior probability per entry of ``values`` (sums to 1).
    """

    wordlength: int
    freq_mhz: float
    beta: float
    magnitudes: np.ndarray
    values: np.ndarray
    mass: np.ndarray
    #: Characterised error variance (integer-product units) aligned with
    #: ``values`` — kept so downstream scoring reuses exactly the data the
    #: prior was formed from.
    variances: np.ndarray | None = None

    @classmethod
    def from_error_model(
        cls,
        model: ErrorModel,
        freq_mhz: float,
        beta: float,
        wordlength: int | None = None,
    ) -> "CoefficientPrior":
        """Form the prior for ``freq_mhz``/``beta`` from an error model.

        The magnitude grid is the model's characterised multiplicand set
        (the paper enumerates the full range, so normally ``[0, 2**wl)``).
        """
        wl = wordlength if wordlength is not None else model.w_coeff
        mags = model.multiplicands
        variance = model.variance_at(freq_mhz)
        signed_m, signed_var = _mirror_signed(mags, variance)
        mass = prior_over_magnitudes(signed_var, beta)
        return cls(
            wordlength=wl,
            freq_mhz=float(freq_mhz),
            beta=float(beta),
            magnitudes=mags,
            values=signed_m / float(1 << wl),
            mass=mass,
            variances=signed_var,
        )

    @classmethod
    def from_static_profile(
        cls,
        profile: "CoefficientTimingProfile",
        freq_mhz: float,
        beta: float,
        wordlength: int | None = None,
    ) -> "CoefficientPrior":
        """Form the prior from static timing instead of measurements.

        The variance surface is the sensitisation-aware STA's worst-case
        squared product error per coefficient
        (:meth:`~repro.analysis.sensitization.CoefficientTimingProfile.variance_proxy_at`)
        — same units and the same eq.-(6) shaping as
        :meth:`from_error_model`, but available before any hardware
        characterisation sweep.  The sign-magnitude mirroring is shared:
        both signs of a magnitude have identical timing (the sign XOR is
        off the multiplier's critical path).
        """
        mags = np.asarray(profile.multiplicands, dtype=np.int64)
        if wordlength is None:
            wordlength = max(1, int(mags.max()).bit_length())
        variance = profile.variance_proxy_at(freq_mhz)
        signed_m, signed_var = _mirror_signed(mags, variance)
        mass = prior_over_magnitudes(signed_var, beta)
        return cls(
            wordlength=wordlength,
            freq_mhz=float(freq_mhz),
            beta=float(beta),
            magnitudes=mags,
            values=signed_m / float(1 << wordlength),
            mass=mass,
            variances=signed_var,
        )

    def __post_init__(self) -> None:
        if self.values.shape != self.mass.shape:
            raise ModelError("prior grid/mass shape mismatch")
        if not np.isfinite(self.values).all():
            raise ModelError("coefficient grid must be finite")
        # Zero-mass entries are legal (log mass -inf); the sampler's window
        # bound needs a finite grid and a finite largest log mass.
        if not (np.isfinite(self.mass).all() and (self.mass >= 0).all()):
            raise ModelError("prior mass must be finite and non-negative")
        if not (self.mass > 0).any():
            raise ModelError("degenerate prior: no coefficient has positive mass")
        if abs(float(self.mass.sum()) - 1.0) > 1e-9:
            raise ModelError("prior mass must sum to 1")
        if np.any(np.diff(self.values) <= 0):
            raise ModelError("coefficient grid must be strictly ascending")

    @property
    def n_values(self) -> int:
        return int(self.values.shape[0])

    def log_mass(self) -> np.ndarray:
        """Log prior mass with -inf for zero-mass entries."""
        with np.errstate(divide="ignore"):
            return np.log(self.mass)

    def entropy(self) -> float:
        """Shannon entropy (nats); flat priors (small beta) maximise it."""
        m = self.mass[self.mass > 0]
        return float(-(m * np.log(m)).sum())

    def magnitude_of(self, value_index: int | np.ndarray) -> np.ndarray:
        """Integer magnitude of grid entr(y/ies) by index."""
        return np.abs(np.rint(self.values[value_index] * (1 << self.wordlength))).astype(np.int64)
