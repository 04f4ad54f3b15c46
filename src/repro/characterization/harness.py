"""Characterisation sweeps: frequency x location x multiplicand.

Implements the paper's measurement procedure (Sec. III-C): one multiplier
operand is enumerated through (a subset of) its possible values, the other
is stimulated with a uniform random stream; the circuit is re-placed at
several device locations; the capture clock is swept across and beyond the
tool-reported Fmax.

Performance notes (per the hpc-parallel guides): the transition timing
simulation is the hot path and is independent of the capture frequency,
so each simulated stream is reused across the whole frequency sweep —
captured at every frequency in one batched NumPy pass; and multiple
multiplicand segments are concatenated into one stream so the per-call
overhead of the level loop is amortised.  Segment-boundary transitions
(where the fixed operand artificially "switches") are masked out of the
statistics — in hardware the constant is set between runs, not streamed.

The sweep itself is sharded per ``(location, multiplicand-chunk)`` and
dispatched through :mod:`repro.parallel.engine`: pass ``jobs`` (or set
``REPRO_JOBS``) to fan the shards out over a process pool.  Results are
bit-identical at any worker count — stimulus streams are drawn up front
in serial order and every capture derives its jitter generator from an
explicit seed path.  Shard failures are retried and, if persistent,
quarantined per the active :class:`~repro.config.ResilienceSettings`
(see ``docs/resilience.md``); recovered sweeps are — by the same
determinism argument — bit-identical to undisturbed ones.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from ..config import ResilienceSettings
from ..errors import CharacterizationError
from ..fabric.device import FPGADevice
from ..faults import FaultPlan
from ..netlist.core import bits_from_ints
from ..obs import runtime as obs
from ..parallel.cache import PlacedDesignCache, get_default_cache, multiplier_netlist
from ..parallel.engine import Shard, SweepPlan, run_sweep
from ..parallel.jobs import resolve_jobs
from ..rng import SeedTree
from ..synthesis.flow import SynthesisFlow
from ..timing.capture import capture_stream
from ..timing.simulator import simulate_transitions
from .circuit import TestRun
from .results import CharacterizationResult

__all__ = ["CharacterizationConfig", "characterize_multiplier", "error_trace"]


def _integral(value: object, name: str) -> int:
    """``value`` as an ``int`` (NumPy integers pass); anything else raises."""
    try:
        return operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise CharacterizationError(
            f"{name} must be an integer, got {value!r}"
        ) from None


@dataclass(frozen=True)
class CharacterizationConfig:
    """Sweep configuration.

    Attributes
    ----------
    freqs_mhz:
        Clock frequencies to request from the PLL.
    n_samples:
        Capture cycles per (multiplicand, location) cell.  The paper used
        29 400; benches scale this down.
    multiplicands:
        Fixed-operand values; ``None`` enumerates the full coefficient
        range (the paper's procedure).
    n_locations:
        Number of placement anchors probed across the die.
    segment_chunk:
        Multiplicand segments fused into one timing simulation.
    """

    freqs_mhz: tuple[float, ...] = (270.0, 290.0, 310.0, 330.0, 350.0)
    n_samples: int = 1000
    multiplicands: tuple[int, ...] | None = None
    n_locations: int = 2
    segment_chunk: int = 8

    def __post_init__(self) -> None:
        if not self.freqs_mhz:
            raise CharacterizationError("at least one frequency required")
        if not all(math.isfinite(f) and f > 0 for f in self.freqs_mhz):
            raise CharacterizationError("frequencies must be finite and positive")
        if _integral(self.n_samples, "n_samples") < 2:
            raise CharacterizationError("n_samples must be >= 2")
        if _integral(self.n_locations, "n_locations") < 1:
            raise CharacterizationError("n_locations must be >= 1")
        if _integral(self.segment_chunk, "segment_chunk") < 1:
            raise CharacterizationError("segment_chunk must be >= 1")
        if self.multiplicands is not None:
            for m in self.multiplicands:
                _integral(m, "multiplicand")


def _resolve_multiplicands(config: CharacterizationConfig, w_coeff: int) -> np.ndarray:
    if config.multiplicands is None:
        return np.arange(1 << w_coeff, dtype=np.int64)
    m = np.asarray(config.multiplicands, dtype=np.int64)
    if m.size == 0:
        raise CharacterizationError("empty multiplicand list")
    if m.min() < 0 or m.max() >= (1 << w_coeff):
        raise CharacterizationError(
            f"multiplicands outside the {w_coeff}-bit range"
        )
    return m


def characterize_multiplier(
    device: FPGADevice,
    w_data: int,
    w_coeff: int,
    config: CharacterizationConfig | None = None,
    seed: int = 0,
    jobs: int | None = None,
    cache: PlacedDesignCache | None = None,
    resilience: ResilienceSettings = ResilienceSettings(),
    faults: FaultPlan | None = None,
) -> CharacterizationResult:
    """Run a full characterisation sweep of one multiplier geometry.

    Returns the per-(location, multiplicand, frequency) error-statistic
    grids.  Deterministic in ``(device.serial, seed, config)`` — the
    ``jobs`` worker count (default serial; ``None`` consults
    ``REPRO_JOBS``) changes wall-clock only, never the numbers; so do
    shard retries, which re-run the identical pure computation.

    Parameters
    ----------
    jobs:
        Process-pool workers for the ``(location, chunk)`` shards.
    cache:
        Placed-design cache for the per-location circuit placements;
        ``None`` uses the process-wide default.
    resilience:
        Retry/timeout/degradation policy for shard failures.  With
        ``allow_degraded`` set, quarantined shards leave NaN cells in
        the grids and the sweep's ``result.outcome`` records them;
        otherwise an incomplete sweep raises
        :class:`~repro.errors.SweepFailedError`.
    faults:
        Chaos plan to inject into the sweep (tests/drills); ``None``
        consults ``REPRO_FAULTS``.
    """
    with obs.span(
        "characterize.sweep", w_data=w_data, w_coeff=w_coeff, seed=seed
    ) as span:
        result = _characterize_multiplier_impl(
            device, w_data, w_coeff, config=config, seed=seed, jobs=jobs,
            cache=cache, resilience=resilience, faults=faults,
        )
        span.set(
            locations=len(result.locations),
            frequencies=int(result.freqs_mhz.shape[0]),
            status=result.outcome.status if result.outcome is not None else "",
        )
    obs.counter_add("characterize.sweeps")
    return result


def _characterize_multiplier_impl(
    device: FPGADevice,
    w_data: int,
    w_coeff: int,
    config: CharacterizationConfig | None = None,
    seed: int = 0,
    jobs: int | None = None,
    cache: PlacedDesignCache | None = None,
    resilience: ResilienceSettings = ResilienceSettings(),
    faults: FaultPlan | None = None,
) -> CharacterizationResult:
    if config is None:
        config = CharacterizationConfig()
    n_jobs = resolve_jobs(jobs)
    tree = SeedTree(seed).child("characterization", f"{w_data}x{w_coeff}")
    multiplicands = _resolve_multiplicands(config, w_coeff)

    # The PLL can only hit a frequency grid; distinct requests may collapse
    # onto one achievable clock.  Dedupe up front (keep the first request)
    # so the result's frequency axis is strictly ascending.
    pll = device.family.pll
    seen: set[float] = set()
    freq_requests: list[float] = []
    for f in sorted(config.freqs_mhz):
        achieved_f = round(pll.synthesize(f).achieved_mhz, 6)
        if achieved_f not in seen:
            seen.add(achieved_f)
            freq_requests.append(f)
    config = replace(config, freqs_mhz=tuple(freq_requests))

    flow = SynthesisFlow(device)
    locations = tuple(
        flow.available_anchors(
            multiplier_netlist(w_data, w_coeff), config.n_locations
        )
    )

    n_f = len(config.freqs_mhz)
    n_m = multiplicands.shape[0]
    n_l = len(locations)
    variance = np.zeros((n_l, n_m, n_f))
    mean = np.zeros((n_l, n_m, n_f))
    rate = np.zeros((n_l, n_m, n_f))

    seg_len = config.n_samples + 1  # one extra word to form n_samples transitions
    achieved = [pll.synthesize(f).achieved_mhz for f in config.freqs_mhz]
    plan = SweepPlan(
        w_data=w_data,
        w_coeff=w_coeff,
        seed=seed,
        freqs_mhz=config.freqs_mhz,
        achieved_mhz=tuple(achieved),
        n_samples=config.n_samples,
    )

    # Draw every shard's stimulus up front, in the serial order of the
    # per-location stream, so sharding cannot perturb the numbers.  Each
    # multiplicand gets its own contiguous segment of uniform random data.
    shards: list[Shard] = []
    for li, loc in enumerate(locations):
        stim_rng = tree.rng("stimulus", str(loc))
        for start in range(0, n_m, config.segment_chunk):
            chunk = multiplicands[start : start + config.segment_chunk]
            stream = stim_rng.integers(
                0, 1 << w_data, size=seg_len * chunk.shape[0], dtype=np.int64
            )
            shards.append(
                Shard(
                    li=li,
                    location=loc,
                    start=start,
                    multiplicands=chunk,
                    stimulus=stream,
                )
            )

    outcome = run_sweep(
        device, plan, shards, jobs=n_jobs, cache=cache,
        resilience=resilience, faults=faults,
    )
    outcome.raise_for_status(allow_degraded=resilience.allow_degraded)
    for shard, result in zip(shards, outcome.results):
        stop = shard.start + shard.multiplicands.shape[0]
        if result is None:
            # Quarantined shard in an allow_degraded sweep: NaN, never
            # zeros — a zero is a legitimate "no errors seen" statistic.
            variance[shard.li, shard.start : stop, :] = np.nan
            mean[shard.li, shard.start : stop, :] = np.nan
            rate[shard.li, shard.start : stop, :] = np.nan
        else:
            variance[result.li, result.start : stop, :] = result.variance
            mean[result.li, result.start : stop, :] = result.mean
            rate[result.li, result.start : stop, :] = result.error_rate

    freqs = np.asarray(achieved, dtype=float)
    return CharacterizationResult(
        w_data=w_data,
        w_coeff=w_coeff,
        device_serial=device.serial,
        freqs_mhz=freqs,
        multiplicands=multiplicands,
        locations=locations,
        variance=variance,
        mean=mean,
        error_rate=rate,
        n_samples=config.n_samples,
        outcome=outcome,
    )


def error_trace(
    device: FPGADevice,
    multiplicand: int,
    freq_mhz: float,
    n_samples: int,
    w_data: int = 8,
    w_coeff: int = 8,
    location: tuple[int, int] = (0, 0),
    seed: int = 0,
) -> TestRun:
    """Single-run error trace for one multiplicand/frequency/location.

    This is the paper's Fig. 4 measurement: the per-cycle error sequence
    (and, from it, the error histogram) of one over-clocked run.  The
    multiplier is placed through the process-wide placed-design cache,
    streamed ``n_samples + 1`` uniform words with ``multiplicand`` held on
    its other operand, and captured at the PLL-achieved clock nearest
    ``freq_mhz``.
    """
    m = _integral(multiplicand, "multiplicand")
    if not 0 <= m < (1 << w_coeff):
        raise CharacterizationError(
            f"multiplicand {m} outside {w_coeff}-bit range"
        )
    n = _integral(n_samples, "n_samples")
    if n < 1:
        raise CharacterizationError(
            "n_samples must be >= 1: the stimulus needs at least 2 words"
        )
    pll = device.family.pll
    clock = pll.synthesize(freq_mhz)
    placed = get_default_cache().get_or_place(device, w_data, w_coeff, location, seed)
    tree = SeedTree(seed).child("trace", str(location))
    stim = tree.rng("stimulus").integers(0, 1 << w_data, size=n + 1, dtype=np.int64)
    inputs = {
        "a": bits_from_ints(stim, w_data),
        "b": bits_from_ints(np.full(n + 1, m), w_coeff),
    }
    timing = simulate_transitions(
        placed.netlist, inputs, placed.node_delay, placed.edge_delay
    )
    result = capture_stream(
        timing,
        "p",
        clock.achieved_mhz,
        setup_ns=placed.setup_ns,
        jitter=pll.jitter,
        rng=tree.rng("capture", f"{freq_mhz}"),
    )
    return TestRun(
        multiplicand=m,
        freq_mhz=clock.achieved_mhz,
        captured=result.captured_ints(),
        expected=result.ideal_ints(),
    )
