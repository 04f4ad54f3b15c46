"""What one run of the Fig. 3 test circuit returns to the host.

The circuit holds one operand of the multiplier under test fixed, streams
uniform words into the other and latches the product at the DUT clock.
:class:`TestRun` is that run's record: the captured products beside the
exact ones, with the error statistics the paper reads off them (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TestRun"]


@dataclass(frozen=True)
class TestRun:
    """Outcome of one characterisation run.

    Attributes
    ----------
    multiplicand:
        The fixed operand value of this run.
    freq_mhz:
        The achieved (PLL) DUT clock frequency.
    captured:
        The products the capture register latched, one per capture cycle.
    expected:
        The exact products for the same stimulus.
    """

    multiplicand: int
    freq_mhz: float
    captured: np.ndarray
    expected: np.ndarray

    @property
    def errors(self) -> np.ndarray:
        """Signed numeric error per capture cycle."""
        return self.captured - self.expected

    @property
    def error_rate(self) -> float:
        return float((self.captured != self.expected).mean()) if self.captured.size else 0.0

    @property
    def error_variance(self) -> float:
        return float(self.errors.var()) if self.captured.size else 0.0

    @property
    def error_mean(self) -> float:
        return float(self.errors.mean()) if self.captured.size else 0.0
