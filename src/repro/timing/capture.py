"""Register capture of an over-clocked combinational output.

Given the settle times from :func:`repro.timing.simulator.simulate_transitions`
and a clock, the capture model decides per output bit and per cycle whether
the new value latched in time:

``captured[i] = new_value[i]  if settle[i] <= period - jitter_i - setup
                old_value[i]  otherwise``

where ``old_value`` is the functional output of the previous stimulus —
i.e. a late bit holds the register's previous (stale) content.  Jitter is
drawn per cycle, which produces the run-to-run variation of error counts
the paper reports at high frequencies (Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import mhz_to_period_ns
from ..errors import TimingError
from ..fabric.jitter import JitterModel
from ..netlist.core import ints_from_bits
from .simulator import TransitionTimingResult

__all__ = ["BatchCaptureResult", "CaptureResult", "capture_stream", "capture_stream_batch"]


@dataclass(frozen=True)
class CaptureResult:
    """Outcome of capturing one output bus over a stimulus stream.

    All arrays cover the ``N - 1`` capture cycles (the first stimulus
    vector only initialises the pipeline).

    Attributes
    ----------
    captured_bits:
        What the register actually held, ``(N-1, width)`` uint8.
    ideal_bits:
        What an infinitely slow clock would have captured.
    late_mask:
        True where a bit missed the timing window, ``(N-1, width)``.
    """

    bus: str
    freq_mhz: float
    captured_bits: np.ndarray
    ideal_bits: np.ndarray
    late_mask: np.ndarray

    @property
    def n_cycles(self) -> int:
        return int(self.captured_bits.shape[0])

    def captured_ints(self, signed: bool = False) -> np.ndarray:
        return ints_from_bits(self.captured_bits, signed=signed)

    def ideal_ints(self, signed: bool = False) -> np.ndarray:
        return ints_from_bits(self.ideal_bits, signed=signed)

    def errors(self, signed: bool = False) -> np.ndarray:
        """Numeric error (captured - ideal) per cycle."""
        return self.captured_ints(signed) - self.ideal_ints(signed)

    def error_rate(self) -> float:
        """Fraction of cycles with at least one erroneous bit."""
        wrong = (self.captured_bits != self.ideal_bits).any(axis=1)
        return float(wrong.mean()) if self.n_cycles else 0.0

    def bit_error_rate(self) -> np.ndarray:
        """Per-bit error rate, LSB first (MSbs fail first by structure)."""
        return (self.captured_bits != self.ideal_bits).mean(axis=0)


def capture_stream(
    timing: TransitionTimingResult,
    bus: str,
    freq_mhz: float,
    setup_ns: float = 0.0,
    jitter: JitterModel | None = None,
    rng: np.random.Generator | None = None,
) -> CaptureResult:
    """Capture an output bus at ``freq_mhz`` with optional jitter.

    Parameters
    ----------
    timing:
        Result of a transition simulation.
    bus:
        Output bus to capture.
    freq_mhz:
        Clock frequency of the capture register.
    setup_ns:
        Register setup margin subtracted from every capture window.
    jitter:
        Cycle-to-cycle jitter model; ``None`` means an ideal clock.
    rng:
        Randomness for the jitter draws (required if jitter is active).
    """
    if bus not in timing.netlist.output_buses:
        raise TimingError(f"unknown output bus {bus!r}")
    period = mhz_to_period_ns(freq_mhz)
    values = timing.output_values(bus)  # (N, width)
    settle = timing.output_settle(bus)  # (N-1, width)
    new_bits = values[1:]
    old_bits = values[:-1]

    n_cycles = settle.shape[0]
    if jitter is not None and jitter.sigma_ns > 0:
        if rng is None:
            raise TimingError("jitter requested but no rng supplied")
        eff = jitter.effective_periods(period, n_cycles, rng)
    else:
        eff = np.full(n_cycles, period)
    window = (eff - setup_ns)[:, None]

    late = settle > window
    captured = np.where(late, old_bits, new_bits).astype(np.uint8)
    return CaptureResult(
        bus=bus,
        freq_mhz=float(freq_mhz),
        captured_bits=captured,
        ideal_bits=new_bits.astype(np.uint8),
        late_mask=late,
    )


@dataclass(frozen=True)
class BatchCaptureResult:
    """Outcome of capturing one output bus at several frequencies at once.

    Attributes
    ----------
    freqs_mhz:
        Capture frequencies, length ``F``.
    captured:
        Captured integer products per frequency, ``(F, N-1)`` int64.
    ideal:
        Exact integer products (frequency-independent), ``(N-1,)`` int64.
    late_counts:
        Late-bit events per frequency, ``(F,)`` int64.
    """

    bus: str
    freqs_mhz: np.ndarray
    captured: np.ndarray
    ideal: np.ndarray
    late_counts: np.ndarray

    @property
    def n_cycles(self) -> int:
        return int(self.captured.shape[1])

    def errors(self) -> np.ndarray:
        """Numeric error (captured - ideal) per frequency and cycle."""
        return self.captured - self.ideal[None, :]


def capture_stream_batch(
    timing: TransitionTimingResult,
    bus: str,
    freqs_mhz: Sequence[float],
    setup_ns: float = 0.0,
    jitter: JitterModel | None = None,
    rngs: Sequence[np.random.Generator] | None = None,
) -> BatchCaptureResult:
    """Capture one simulated stream at many frequencies in one NumPy pass.

    Per-frequency results are bit-identical to calling
    :func:`capture_stream` once per frequency with the matching rng: the
    jitter draws come from each frequency's own generator in order, and
    each late bit is the same float comparison.  Only the (frequency,
    cycle) pairs whose latest output bit settles after the window are
    compared bit by bit; every other pair captures the ideal word.  The
    transition simulation (the expensive part) is shared across the
    whole frequency sweep.

    Parameters
    ----------
    freqs_mhz:
        Capture frequencies, length ``F``.
    rngs:
        One jitter generator per frequency (required if jitter is active).
    """
    if bus not in timing.netlist.output_buses:
        raise TimingError(f"unknown output bus {bus!r}")
    if len(freqs_mhz) == 0:
        raise TimingError("at least one capture frequency required")
    if rngs is not None and len(rngs) != len(freqs_mhz):
        raise TimingError(
            f"{len(rngs)} jitter rngs supplied for {len(freqs_mhz)} frequencies"
        )
    ids = timing.netlist.output_buses[bus]
    values = timing.values[ids]  # (width, N)
    settle = timing.settle[ids]  # (width, N-1)
    n_cycles = settle.shape[1]

    # One period vector for the whole sweep, then one broadcast for the
    # no-jitter windows — not an np.full + subtract per frequency.
    periods = np.array([mhz_to_period_ns(f) for f in freqs_mhz])
    if jitter is not None and jitter.sigma_ns > 0:
        if rngs is None:
            raise TimingError("jitter requested but no rngs supplied")
        # Jittered windows keep the per-frequency draw order: each
        # frequency's generator produces exactly the draws it would in a
        # lone capture_stream call (bit-identity contract above).
        windows = np.empty((len(freqs_mhz), n_cycles))
        for fi, period in enumerate(periods):
            eff = jitter.effective_periods(period, n_cycles, rngs[fi])
            windows[fi] = eff - setup_ns
    else:
        windows = np.broadcast_to(
            (periods - setup_ns)[:, None], (len(freqs_mhz), n_cycles)
        )

    weights = 1 << np.arange(values.shape[0], dtype=np.int64)
    words = weights @ values  # functional output word of every vector
    ideal = words[1:]
    # A cycle whose latest output bit settles inside the window captures
    # the ideal word.  Only the other (frequency, cycle) pairs compare bit
    # by bit, and a late bit whose value changed keeps its old value.
    f_idx, c_idx = np.divmod(
        np.flatnonzero(settle.max(axis=0) > windows), n_cycles
    )
    late = np.take(settle.T.copy(), c_idx, axis=0) > windows[f_idx, c_idx, None]
    late_u8 = late.view(np.uint8)  # (pairs, width) 0/1
    captured = np.tile(ideal, (len(freqs_mhz), 1))
    captured[f_idx, c_idx] ^= np.einsum("ij,j->i", late_u8, weights) & (
        words[c_idx] ^ ideal[c_idx]
    )
    # A pair's late-bit count fits einsum's uint8 sum: words are <= 63 bits.
    late_counts = np.bincount(
        f_idx, weights=np.einsum("ij->i", late_u8), minlength=len(freqs_mhz)
    )
    return BatchCaptureResult(
        bus=bus,
        freqs_mhz=np.asarray(freqs_mhz, dtype=float),
        captured=captured,
        ideal=ideal,
        late_counts=late_counts.astype(np.int64),
    )
