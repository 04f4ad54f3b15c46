"""Frozen configuration objects and the paper's Table I settings.

Units convention used throughout the library:

* **delay**: nanoseconds (ns)
* **frequency**: megahertz (MHz); a clock of frequency ``f`` MHz has period
  ``1000 / f`` ns
* **area**: logic elements (LEs)

The numeric defaults below were calibrated once so the simulated fabric
reproduces the paper's headline operating points: the synthesis tool reports
roughly 167 MHz for the 9-bit-coefficient KLT design while the placed design
is actually error-free to ~1.5x that and usable (error-prone) well beyond,
making the paper's 310 MHz target 1.85x the tool report (paper Sec. VI-D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "TableISettings",
    "TimingConfig",
    "ResilienceSettings",
    "mhz_to_period_ns",
    "period_ns_to_mhz",
]


def mhz_to_period_ns(freq_mhz: float) -> float:
    """Convert a clock frequency in MHz to a period in nanoseconds."""
    if freq_mhz <= 0:
        raise ConfigError(f"frequency must be positive, got {freq_mhz}")
    return 1000.0 / float(freq_mhz)


def period_ns_to_mhz(period_ns: float) -> float:
    """Convert a clock period in nanoseconds to a frequency in MHz."""
    if period_ns <= 0:
        raise ConfigError(f"period must be positive, got {period_ns}")
    return 1000.0 / float(period_ns)


@dataclass(frozen=True)
class TimingConfig:
    """Delay-model constants of the simulated fabric.

    Attributes
    ----------
    lut_delay_ns:
        Nominal combinational delay of one 4-input LUT cell at nominal
        conditions before variation scaling.
    routing_delay_per_hop_ns:
        Nominal routing delay per unit Manhattan distance between the
        driving and receiving logic elements.
    routing_base_delay_ns:
        Fixed component of every net's delay (local interconnect mux).
    register_setup_ns:
        Setup time charged against the capture register.
    tool_guard_band:
        Multiplicative pessimism of the synthesis tool's family-wide model
        relative to *nominal* delays (paper Fig. 1: fA well below fB).
    slow_corner_factor:
        Extra worst-case process-corner factor the tool stacks on top of the
        guard band.
    """

    lut_delay_ns: float = 0.092
    routing_delay_per_hop_ns: float = 0.006
    routing_base_delay_ns: float = 0.028
    register_setup_ns: float = 0.040
    tool_guard_band: float = 1.22
    slow_corner_factor: float = 1.25

    def __post_init__(self) -> None:
        for name in (
            "lut_delay_ns",
            "routing_delay_per_hop_ns",
            "routing_base_delay_ns",
            "register_setup_ns",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.tool_guard_band < 1.0 or self.slow_corner_factor < 1.0:
            raise ConfigError("tool pessimism factors must be >= 1.0")


@dataclass(frozen=True)
class ResilienceSettings:
    """Retry/timeout/degradation policy for sharded sweeps.

    Consumed by :func:`repro.parallel.engine.run_sweep`; callers build one
    and pass it down (``repro-flow characterize`` builds it from its
    ``--shard-timeout``, ``--max-retries`` and ``--allow-degraded`` flags).

    Attributes
    ----------
    shard_timeout_s:
        Wall-clock bound on waiting for one shard's result from a pool
        worker: finite and positive, or ``None`` to wait forever.  A
        timeout abandons the pool (hung workers cannot be preempted
        individually) and falls back to inline execution.  Timeouts are
        only enforceable on the pool path; inline shards run to
        completion.
    max_retries:
        Extra attempts granted to a failing shard after its first try.
        ``0`` restores the pre-resilience fail-fast behaviour.
    backoff_base_s:
        Exponential-backoff schedule between attempts:
        ``min(2.0, base * 2.0**k)`` seconds before retry ``k``.
    backoff_jitter:
        Fraction of the delay spread deterministically (seeded off the
        sweep's seed tree) around the nominal schedule, so chaos runs are
        bit-reproducible while real deployments still decorrelate.
    allow_degraded:
        Accept sweeps in which some shards stayed quarantined after all
        retries; their grid cells are reported as NaN.  Off by default:
        a degraded sweep raises :class:`~repro.errors.SweepFailedError`.
    """

    shard_timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_jitter: float = 0.5
    allow_degraded: bool = False

    def __post_init__(self) -> None:
        timeout = self.shard_timeout_s
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise ConfigError(
                f"shard timeout must be finite and positive (or None), got {timeout}"
            )
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff delays must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigError("backoff_jitter must be in [0, 1]")


@dataclass(frozen=True)
class TableISettings:
    """The case-study settings of the paper's Table I.

    These are the *library defaults* for the end-to-end experiments.  Tests
    and benches scale the sample counts down (documented per experiment in
    EXPERIMENTS.md) to keep wall-clock time sane, but the full settings stay
    available as ``TableISettings()``.
    """

    p: int = 6  # original dimensionality (Z^6)
    k: int = 3  # projected dimensionality (Z^3)
    n_characterization: int = 4900  # cases per characterisation run
    n_train: int = 100  # OF training cases
    n_test: int = 5000  # test cases
    betas: tuple[float, ...] = (4.0, 8.0)  # prior hyper-parameter values
    q: int = 5  # designs kept per iteration
    clock_frequency_mhz: float = 310.0  # target clock frequency
    input_wordlength: int = 9  # input-data word-length (bits)
    min_coeff_wordlength: int = 3  # smallest lambda word-length explored
    max_coeff_wordlength: int = 9  # largest lambda word-length explored
    burn_in: int = 1000  # Gibbs burn-in samples
    n_samples: int = 3000  # Gibbs samples per projection vector

    def __post_init__(self) -> None:
        if self.p < 1 or self.k < 1 or self.k > self.p:
            raise ConfigError(f"require 1 <= k <= p, got p={self.p}, k={self.k}")
        if self.q < 1:
            raise ConfigError("Q must be >= 1 (Alg. 1 'Require' clause)")
        if not all(b > 0 for b in self.betas):
            raise ConfigError("beta must be > 0 (Alg. 1 'Require' clause)")
        if self.clock_frequency_mhz <= 0:
            raise ConfigError("freq must be > 0 (Alg. 1 'Require' clause)")
        if not (1 <= self.min_coeff_wordlength <= self.max_coeff_wordlength):
            raise ConfigError("invalid coefficient word-length range")
        for name in ("n_characterization", "n_train", "n_test", "burn_in", "n_samples"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")

    @property
    def coeff_wordlengths(self) -> tuple[int, ...]:
        """The word-length sweep wl_min..wl_max of Algorithm 1."""
        return tuple(range(self.min_coeff_wordlength, self.max_coeff_wordlength + 1))

    def scaled(self, factor: float) -> "TableISettings":
        """Return a copy with all sample counts scaled by ``factor``.

        Used by tests/benches to run the same experiment shape at a
        fraction of the paper's sample counts.  Counts are floored at small
        positive minima so the pipeline stays exercised end to end.
        """
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigError(
                f"scale factor must be finite and positive, got {factor}"
            )

        def s(n: int, lo: int) -> int:
            return max(lo, int(round(n * factor)))

        return TableISettings(
            p=self.p,
            k=self.k,
            n_characterization=s(self.n_characterization, 50),
            n_train=s(self.n_train, 20),
            n_test=s(self.n_test, 50),
            betas=self.betas,
            q=self.q,
            clock_frequency_mhz=self.clock_frequency_mhz,
            input_wordlength=self.input_wordlength,
            min_coeff_wordlength=self.min_coeff_wordlength,
            max_coeff_wordlength=self.max_coeff_wordlength,
            burn_in=s(self.burn_in, 5),
            n_samples=s(self.n_samples, 10),
        )
