"""Run-time model of the optimisation framework (paper eqs. 7-8).

The paper models the wall-clock cost of a full design-space exploration:

``R(wl)   = 0.4266 * exp(0.6427 * wl)``                        (eq. 8)
``Time    = (1 + Q*(K-1)) * sum_HP sum_Freqs sum_wl R(wl)``    (eq. 7)

both in seconds on the authors' Core-i7.  The worked example in Sec. VI-E
(#Freqs=1, K=3, Q=5, #HP=2, wl=3..9 -> "1 hour and 44 minutes") pins the
constants: with these values eq. 7 gives ~6 400 s ~ 1 h 47 m, matching the
paper's quote to within rounding.

:class:`RuntimeModel` also supports refitting the two constants of eq. 8
from measured per-word-length sampling times, so the bench can compare the
paper's model shape against this reproduction's actual runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ModelError

__all__ = ["RuntimeModel", "predict_runtime_seconds", "PAPER_RUNTIME_MODEL"]


@dataclass(frozen=True)
class RuntimeModel:
    """Exponential per-word-length sampling-cost model (eq. 8)."""

    scale: float = 0.4266
    rate: float = 0.6427

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ModelError("runtime scale must be positive")

    def vector_seconds(self, wordlength: int | np.ndarray) -> np.ndarray:
        """R(wl): seconds to sample one projection vector at ``wl``."""
        wl = np.asarray(wordlength, dtype=float)
        if np.any(wl < 1):
            raise ModelError("wordlength must be >= 1")
        return self.scale * np.exp(self.rate * wl)

    def total_seconds(
        self,
        wordlengths: Sequence[int],
        k: int,
        q: int,
        n_hyperparams: int,
        n_freqs: int,
    ) -> float:
        """Time (eq. 7) for a complete exploration."""
        if k < 1 or q < 1 or n_hyperparams < 1 or n_freqs < 1:
            raise ModelError("K, Q, #HP and #Freqs must all be >= 1")
        if not wordlengths:
            raise ModelError("empty word-length sweep")
        inner = float(self.vector_seconds(np.asarray(wordlengths)).sum())
        return (1 + q * (k - 1)) * n_hyperparams * n_freqs * inner

    @classmethod
    def fit(cls, wordlengths: Sequence[int], seconds: Sequence[float]) -> "RuntimeModel":
        """Fit (scale, rate) from measured per-vector times.

        Log-linear least squares; needs at least two distinct word-lengths
        and strictly positive times.
        """
        wl = np.asarray(wordlengths, dtype=float)
        t = np.asarray(seconds, dtype=float)
        if wl.shape != t.shape or wl.size < 2:
            raise ModelError("need >= 2 (wordlength, time) pairs")
        if np.any(t <= 0):
            raise ModelError("measured times must be positive")
        if len(set(wl.tolist())) < 2:
            raise ModelError("need at least two distinct word-lengths")
        rate, log_scale = np.polyfit(wl, np.log(t), 1)
        return cls(scale=float(np.exp(log_scale)), rate=float(rate))


#: The paper's fitted constants.
PAPER_RUNTIME_MODEL = RuntimeModel()


def predict_runtime_seconds(
    wordlengths: Sequence[int],
    k: int,
    q: int,
    n_hyperparams: int,
    n_freqs: int,
    model: RuntimeModel = PAPER_RUNTIME_MODEL,
) -> float:
    """Convenience wrapper around :meth:`RuntimeModel.total_seconds`."""
    return model.total_seconds(wordlengths, k, q, n_hyperparams, n_freqs)
