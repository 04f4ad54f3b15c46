"""Process-pool execution of characterisation sweeps.

The sweep of :func:`repro.characterization.harness.characterize_multiplier`
is embarrassingly parallel across ``(location, multiplicand-chunk)``
shards: each shard owns its stimulus stream (drawn up front by the parent
from the per-location :class:`~repro.rng.SeedTree` stream, preserving the
serial draw order) and derives its capture-jitter generators from explicit
seed paths.  Shard results are therefore bit-identical whether a shard
runs inline (``jobs=1``) or in any worker of a ``ProcessPoolExecutor`` —
the worker count only changes wall-clock, never numbers.

Workers re-place the (cheap) multiplier under test through their own
in-memory placed-design cache, so each worker synthesises a location at
most once per sweep.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

import numpy as np

from ..config import ResilienceSettings
from ..fabric.device import FPGADevice
from ..obs import runtime as obs
from ..faults import FaultInjector, FaultPlan
from ..netlist.core import EvalScratch, bits_from_ints
from ..rng import SeedTree
from ..timing.capture import capture_stream_batch
from ..timing.simulator import simulate_transitions
from .cache import PlacedDesignCache, get_default_cache
from .retry import (
    ATTEMPT_ERROR,
    ATTEMPT_INVALID,
    ATTEMPT_OK,
    ATTEMPT_TIMEOUT,
    DISPOSITION_COMPLETED,
    DISPOSITION_QUARANTINED,
    DISPOSITION_RECOVERED,
    ShardAttempt,
    ShardReport,
    SweepOutcome,
    backoff_delay,
)

__all__ = [
    "Shard",
    "ShardResult",
    "SweepPlan",
    "run_shard",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepPlan:
    """Shard-invariant description of one characterisation sweep.

    Attributes
    ----------
    freqs_mhz:
        Requested capture frequencies after PLL dedupe (these name the
        capture seed paths, exactly as the serial sweep always has).
    achieved_mhz:
        The matching PLL-achieved frequencies (synthesised once by the
        planner, not per shard).
    """

    w_data: int
    w_coeff: int
    seed: int
    freqs_mhz: tuple[float, ...]
    achieved_mhz: tuple[float, ...]
    n_samples: int


@dataclass(frozen=True)
class Shard:
    """One ``(location, multiplicand-chunk)`` unit of sweep work."""

    li: int
    location: tuple[int, int]
    start: int
    multiplicands: np.ndarray  # (C,) int64
    stimulus: np.ndarray  # (C * (n_samples + 1),) int64


@dataclass(frozen=True)
class ShardResult:
    """Per-chunk statistic blocks, ``(C, F)`` each."""

    li: int
    start: int
    variance: np.ndarray
    mean: np.ndarray
    error_rate: np.ndarray


def _segment_statistics(
    errors: np.ndarray, n_segments: int, seg_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment variance/mean/rate over fused capture errors.

    ``errors`` is ``(F, n_tr)`` int64 with ``n_tr = n_segments*seg_len - 1``;
    each segment's first transition after a boundary (the artificial
    multiplicand switch) is masked out, leaving exactly ``seg_len - 1``
    valid capture cycles per segment.  One :func:`np.add.reduceat` pass per
    statistic replaces the per-frequency × per-segment Python loop.

    Returns ``(variance, mean, rate)`` of shape ``(C, F)``.
    """
    n_tr = errors.shape[1]
    n_valid = seg_len - 1
    valid = np.ones(n_tr, dtype=bool)
    valid[np.arange(1, n_segments) * seg_len - 1] = False
    starts = np.arange(n_segments) * seg_len
    seg_of_transition = np.arange(n_tr) // seg_len

    masked = np.where(valid[None, :], errors, 0)
    sums = np.add.reduceat(masked, starts, axis=1)  # exact: int64 all the way
    mean = sums / n_valid
    dev = np.where(valid[None, :], errors - mean[:, seg_of_transition], 0.0)
    variance = np.add.reduceat(dev * dev, starts, axis=1) / n_valid
    wrong = ((errors != 0) & valid[None, :]).astype(np.int64)
    rate = np.add.reduceat(wrong, starts, axis=1) / n_valid
    return variance.T, mean.T, rate.T


def run_shard(
    device: FPGADevice,
    plan: SweepPlan,
    shard: Shard,
    cache: PlacedDesignCache | None = None,
    injector: FaultInjector | None = None,
    attempt: int = 0,
    scratch: EvalScratch | None = None,
) -> ShardResult:
    """Execute one shard: place (via cache), simulate once, capture batch.

    Deterministic in ``(device identity, plan, shard)`` — all randomness
    comes from the pre-drawn stimulus and the explicit capture seed paths.
    In particular the result does not depend on ``attempt``: a retried
    shard reproduces the first attempt bit for bit, which is what makes
    the resilience layer's recovery invisible in the numbers.

    ``injector``/``attempt`` arm a chaos plan for this attempt (see
    :mod:`repro.faults`); production sweeps leave them at their defaults.
    ``scratch`` reuses simulation temporaries across same-shape shards
    (one pool per worker / per inline loop) without affecting results.
    """
    if injector is not None:
        injector.fire_pre(shard, attempt)
    seg_len = plan.n_samples + 1
    chunk = shard.multiplicands
    placed = (cache or get_default_cache()).get_or_place(
        device, plan.w_data, plan.w_coeff, shard.location, plan.seed + shard.li
    )
    inputs = {
        "a": bits_from_ints(shard.stimulus, plan.w_data),
        "b": bits_from_ints(np.repeat(chunk, seg_len), plan.w_coeff),
    }
    timing = simulate_transitions(
        placed.netlist,
        inputs,
        placed.node_delay,
        placed.edge_delay,
        scratch=scratch,
    )
    tree = SeedTree(plan.seed).child(
        "characterization", f"{plan.w_data}x{plan.w_coeff}"
    )
    rngs = [
        tree.rng("capture", str(shard.location), f"{f}", str(shard.start))
        for f in plan.freqs_mhz
    ]
    batch = capture_stream_batch(
        timing,
        "p",
        plan.achieved_mhz,
        setup_ns=placed.setup_ns,
        jitter=device.family.pll.jitter,
        rngs=rngs,
    )
    variance, mean, rate = _segment_statistics(
        batch.errors(), chunk.shape[0], seg_len
    )
    result = ShardResult(
        li=shard.li, start=shard.start, variance=variance, mean=mean, error_rate=rate
    )
    if injector is not None:
        result = injector.mutate_result(result, shard, attempt)
    return result


# ----------------------------------------------------------------------
# Pool plumbing.  Workers hold the sweep-invariant state in module globals
# (set once by the pool initializer) so each dispatched shard only ships
# its own stimulus and multiplicands.  When the parent records telemetry,
# so does each worker, and every attempt returns its spans and counts
# with its result (repro.obs.runtime's pool-worker hooks).
_worker_device: FPGADevice | None = None
_worker_plan: SweepPlan | None = None
_worker_cache: PlacedDesignCache | None = None
_worker_injector: FaultInjector | None = None
_worker_scratch: EvalScratch | None = None


def _init_worker(
    device: FPGADevice,
    plan: SweepPlan,
    faults: FaultPlan | None = None,
    telemetry: obs.WorkerSettings | None = None,
) -> None:
    global _worker_device, _worker_plan, _worker_cache, _worker_injector
    global _worker_scratch
    obs.start_worker(telemetry)
    _worker_device = device
    _worker_plan = plan
    _worker_cache = PlacedDesignCache()
    _worker_injector = (
        FaultInjector(faults) if faults is not None and not faults.is_empty else None
    )
    # Per-worker-process simulation buffer pool: shards of one sweep share
    # shapes, so the pool amortises every allocation after the first shard.
    # Results are copied out of scratch space before returning, so reuse
    # cannot leak across shards.
    _worker_scratch = EvalScratch()


def _run_shard_in_worker(
    shard: Shard, attempt: int = 0
) -> tuple[ShardResult, float, obs.WorkerTelemetry | None]:
    """Run one shard in a pool worker; returns its result, run time and telemetry.

    The run time is taken here, around :func:`run_shard`, because the
    parent harvests futures in shard order: its wait for a future is not
    the shard's latency.
    """
    assert _worker_device is not None and _worker_plan is not None
    t0 = time.perf_counter()
    result = run_shard(
        _worker_device,
        _worker_plan,
        shard,
        _worker_cache,
        injector=_worker_injector,
        attempt=attempt,
        scratch=_worker_scratch,
    )
    return result, time.perf_counter() - t0, obs.drain()


def _validate_result(plan: SweepPlan, shard: Shard, result: object) -> str | None:
    """Sanity-check a shard result; returns a problem description or None.

    Guards against corrupted returns (chaos ``corrupt`` faults, but also
    any real serialisation damage on the pool path): wrong identity,
    wrong block shapes, or non-finite statistics are all rejected so the
    retry loop re-runs the shard instead of polluting the grids.
    """
    if not isinstance(result, ShardResult):
        return f"not a ShardResult: {type(result).__name__}"
    if result.li != shard.li or result.start != shard.start:
        return (
            f"identity mismatch: got (li={result.li}, start={result.start}), "
            f"expected (li={shard.li}, start={shard.start})"
        )
    expected = (shard.multiplicands.shape[0], len(plan.freqs_mhz))
    for name in ("variance", "mean", "error_rate"):
        block = getattr(result, name)
        if not isinstance(block, np.ndarray) or block.shape != expected:
            return f"{name} block has shape {getattr(block, 'shape', None)}, expected {expected}"
        if not np.all(np.isfinite(block)):
            return f"{name} block contains non-finite values"
    return None


class _SweepState:
    """Mutable bookkeeping shared by the pool pass and the inline loop."""

    def __init__(self, n: int) -> None:
        self.results: list[ShardResult | None] = [None] * n
        self.attempts: list[list[ShardAttempt]] = [[] for _ in range(n)]
        self.fallback_inline = False
        self.pool_broken = False

    def record(self, i: int, outcome: str, latency_s: float, detail: str = "") -> None:
        self.attempts[i].append(
            ShardAttempt(
                attempt=len(self.attempts[i]),
                outcome=outcome,
                latency_s=latency_s,
                detail=detail,
            )
        )

    def accept(self, plan: SweepPlan, shards: list[Shard], i: int,
               result: object, latency_s: float) -> None:
        problem = _validate_result(plan, shards[i], result)
        if problem is None:
            self.results[i] = result  # type: ignore[assignment]
            self.record(i, ATTEMPT_OK, latency_s)
        else:
            self.record(i, ATTEMPT_INVALID, latency_s, problem)


def _harvest_future(state: _SweepState, plan: SweepPlan, shards: list[Shard],
                    i: int, future, timeout: float | None) -> str | None:
    """Wait for one pool future; returns 'timeout'/'broken' on pool-fatal
    conditions, None otherwise (success or a retryable shard failure).

    An ok or invalid attempt records the run time the worker measured.
    A timeout, a broken pool or an exception raised in the worker has no
    such time, so it records the parent's wait for this future.
    """
    t0 = time.perf_counter()
    try:
        result, latency_s, telemetry = future.result(timeout=timeout)
    except FuturesTimeoutError:
        state.record(
            i, ATTEMPT_TIMEOUT, time.perf_counter() - t0,
            f"no result within {timeout}s; abandoning pool",
        )
        return "timeout"
    except BrokenExecutor as exc:
        state.record(
            i, ATTEMPT_ERROR, time.perf_counter() - t0, f"process pool broke: {exc}"
        )
        return "broken"
    except Exception as exc:  # shard raised inside the worker
        state.record(
            i, ATTEMPT_ERROR, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        )
        return None
    obs.adopt(telemetry)
    state.accept(plan, shards, i, result, latency_s)
    return None


def _pool_pass(
    device: FPGADevice,
    plan: SweepPlan,
    shards: list[Shard],
    jobs: int,
    settings: ResilienceSettings,
    faults: FaultPlan | None,
    state: _SweepState,
) -> None:
    """First attempt of every shard over a process pool.

    Workers hold the sweep-invariant state from the pool initializer.  A
    hung shard (timeout) or a broken pool abandons the pass: finished
    futures are harvested, every other shard is left unrecorded and gets
    its first attempt in the inline loop — the sweep degrades to serial
    execution rather than aborting.
    """
    n = len(shards)
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, n),
        initializer=_init_worker,
        initargs=(device, plan, faults, obs.worker_settings()),
    )
    abandon = None
    try:
        futures = [
            pool.submit(_run_shard_in_worker, shard, 0) for shard in shards
        ]
        for i, future in enumerate(futures):
            abandon = _harvest_future(
                state, plan, shards, i, future, settings.shard_timeout_s
            )
            if abandon is not None:
                break
        if abandon is not None:
            state.fallback_inline = True
            state.pool_broken = abandon == "broken"
            # Harvest whatever already finished without waiting on the
            # sick pool; everything else retries inline.
            for j, future in enumerate(futures):
                if not state.attempts[j] and future.done():
                    _harvest_future(state, plan, shards, j, future, 0)
    finally:
        # wait=True would block forever on a hung worker; leaked
        # workers either finish their (finite) injected hang or die
        # with the parent.
        pool.shutdown(wait=not state.fallback_inline, cancel_futures=True)


def run_sweep(
    device: FPGADevice,
    plan: SweepPlan,
    shards: list[Shard],
    jobs: int = 1,
    cache: PlacedDesignCache | None = None,
    resilience: ResilienceSettings = ResilienceSettings(),
    faults: FaultPlan | None = None,
) -> SweepOutcome:
    """Run all shards with retries, timeouts and quarantine bookkeeping.

    The hardened execution path: every shard gets ``1 + max_retries``
    attempts; failures (exceptions, pool timeouts, invalid results) back
    off exponentially with deterministic jitter and re-run; shards that
    never succeed are quarantined and reported — not raised — in the
    returned :class:`~repro.parallel.retry.SweepOutcome`.

    Execution strategy: the first attempt of every shard is dispatched
    over the process pool (when ``jobs > 1``); retries run inline in the
    parent, where failure modes are directly observable.  If the pool
    breaks (worker hard-crash) or a shard times out (a hung worker cannot
    be preempted individually), the pool is abandoned and every
    unfinished shard continues inline — the sweep degrades to serial
    execution rather than aborting.  Successful results are bit-identical
    on every path, so none of this machinery can perturb the numbers.

    Parameters
    ----------
    resilience:
        Retry/timeout policy.
    faults:
        Chaos plan to inject; ``None`` consults ``REPRO_FAULTS`` (an
        unset variable injects nothing).
    """
    if faults is None:
        faults = FaultPlan.from_env()
    injector = (
        FaultInjector(faults) if faults is not None and not faults.is_empty else None
    )
    n = len(shards)
    state = _SweepState(n)

    # ---- pool pass: first attempt of every shard --------------------
    # At jobs=1 or with a single shard the inline loop below takes every
    # first attempt; so it does for shards an abandoned pool left behind.
    if jobs > 1 and n > 1:
        _pool_pass(device, plan, shards, jobs, resilience, faults, state)

    # ---- inline pass: first attempts at jobs=1, then all retries ----
    inline_scratch = EvalScratch()
    for i, shard in enumerate(shards):
        while state.results[i] is None and len(state.attempts[i]) <= resilience.max_retries:
            attempt = len(state.attempts[i])
            if attempt > 0:
                time.sleep(
                    backoff_delay(
                        resilience, plan.seed, attempt - 1,
                        str(shard.li), str(shard.start),
                    )
                )
            t0 = time.perf_counter()
            try:
                result = run_shard(
                    device, plan, shard, cache, injector=injector,
                    attempt=attempt, scratch=inline_scratch,
                )
            except Exception as exc:
                state.record(
                    i, ATTEMPT_ERROR, time.perf_counter() - t0,
                    f"{type(exc).__name__}: {exc}",
                )
                continue
            state.accept(plan, shards, i, result, time.perf_counter() - t0)

    # ---- dispositions ----------------------------------------------
    reports = []
    for i, shard in enumerate(shards):
        if state.results[i] is None:
            disposition = DISPOSITION_QUARANTINED
        elif len(state.attempts[i]) > 1:
            disposition = DISPOSITION_RECOVERED
        else:
            disposition = DISPOSITION_COMPLETED
        reports.append(
            ShardReport(
                index=i,
                li=shard.li,
                start=shard.start,
                attempts=tuple(state.attempts[i]),
                disposition=disposition,
            )
        )
    return SweepOutcome(
        results=tuple(state.results),
        reports=tuple(reports),
        fallback_inline=state.fallback_inline,
        pool_broken=state.pool_broken,
    )
