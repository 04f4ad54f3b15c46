"""PLL clock-synthesis model (the clock source of the paper's Fig. 3).

A DE0 board feeds the Cyclone III PLL with a 50 MHz reference.  The PLL can
synthesise ``f = f_ref * M / (N * C)`` for integer multiply/divide factors
within hardware ranges, so the characterisation harness can only request
frequencies on this grid.  ``PLL.synthesize`` returns the *achievable*
frequency closest to a request — the harness records the achieved value,
just as the real flow records the PLL's actual output.

The PLL also owns the jitter model for the clocks it generates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from ..errors import ConfigError
from .jitter import JitterModel

__all__ = ["PLLConfig", "PLL", "SynthesizedClock"]


@dataclass(frozen=True)
class PLLConfig:
    """Integer-divider PLL parameter ranges (Cyclone III-like)."""

    reference_mhz: float = 50.0
    m_range: tuple[int, int] = (1, 512)
    n_range: tuple[int, int] = (1, 512)
    c_range: tuple[int, int] = (1, 512)
    vco_min_mhz: float = 600.0
    vco_max_mhz: float = 1300.0

    def __post_init__(self) -> None:
        if self.reference_mhz <= 0:
            raise ConfigError("reference frequency must be positive")
        for lo, hi in (self.m_range, self.n_range, self.c_range):
            if lo < 1 or hi < lo:
                raise ConfigError("invalid divider range")
        if not (0 < self.vco_min_mhz < self.vco_max_mhz):
            raise ConfigError("invalid VCO range")


@dataclass(frozen=True)
class SynthesizedClock:
    """A clock the PLL agreed to produce."""

    requested_mhz: float
    achieved_mhz: float
    m: int
    n: int
    c: int

    @property
    def period_ns(self) -> float:
        return 1000.0 / self.achieved_mhz

    @property
    def error_ppm(self) -> float:
        return 1e6 * abs(self.achieved_mhz - self.requested_mhz) / self.requested_mhz


@dataclass(frozen=True)
class PLL:
    """Integer PLL frequency synthesiser with attached jitter model."""

    config: PLLConfig = PLLConfig()
    jitter: JitterModel = field(default_factory=JitterModel)

    def synthesize(self, freq_mhz: float) -> SynthesizedClock:
        """Find the achievable output frequency closest to ``freq_mhz``.

        Searches ``f_ref * M / (N * C)`` subject to the VCO constraint
        ``vco_min <= f_ref * M / N <= vco_max``.  The search result is
        memoised per ``(config, frequency)`` — the characterisation sweep
        asks for the same handful of clocks thousands of times.

        Raises
        ------
        ConfigError
            If the request is not finite, non-positive or outside any
            achievable range.
        """
        if not (math.isfinite(freq_mhz) and freq_mhz > 0):
            raise ConfigError(
                f"requested frequency must be finite and positive: {freq_mhz}"
            )
        return _synthesize_search(self.config, float(freq_mhz))


@lru_cache(maxsize=4096)
def _synthesize_search(cfg: PLLConfig, freq_mhz: float) -> SynthesizedClock:
    """The divider grid search behind :meth:`PLL.synthesize`.

    Pure in ``(cfg, freq_mhz)`` and therefore safe to memoise; the
    returned :class:`SynthesizedClock` is frozen, so sharing one instance
    across callers is harmless.
    """
    best: SynthesizedClock | None = None
    best_err = float("inf")
    # Modest search: N small in practice; C chosen to land near target.
    for n in range(cfg.n_range[0], min(cfg.n_range[1], 16) + 1):
        # VCO constraint bounds M for this N.
        m_lo = max(cfg.m_range[0], int(cfg.vco_min_mhz * n / cfg.reference_mhz))
        m_hi = min(cfg.m_range[1], int(cfg.vco_max_mhz * n / cfg.reference_mhz))
        for m in range(m_lo, m_hi + 1):
            vco = cfg.reference_mhz * m / n
            if not (cfg.vco_min_mhz <= vco <= cfg.vco_max_mhz):
                continue
            c = max(cfg.c_range[0], min(cfg.c_range[1], round(vco / freq_mhz)))
            # Small-int set: hash(int) == int in CPython, so iteration is
            # value-ordered and PYTHONHASHSEED-independent; sorted() would
            # reorder the `err < best_err` tie-breaks and change achieved
            # frequencies archived in golden results.
            # repro: allow[DT004] -- int-set order is hashseed-free; sorted() flips tie-breaks
            for cc in {c, max(cfg.c_range[0], c - 1), min(cfg.c_range[1], c + 1)}:
                f = vco / cc
                err = abs(f - freq_mhz)
                if err < best_err:
                    best_err = err
                    best = SynthesizedClock(
                        requested_mhz=freq_mhz, achieved_mhz=f, m=m, n=n, c=cc
                    )
    if best is None:
        raise ConfigError(f"no PLL setting reaches {freq_mhz} MHz")
    return best
