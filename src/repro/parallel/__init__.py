"""Performance layer: process-pool sweeps and the placed-design cache.

Coordinated pieces (see ``docs/performance.md``):

* :func:`resolve_jobs` / ``REPRO_JOBS`` — one worker-count knob shared by
  the library, the CLIs and the benchmarks (default 1: serial);
* :class:`PlacedDesignCache` — thread-safe in-memory memoisation of
  :class:`~repro.synthesis.flow.PlacedDesign` keyed by device identity,
  geometry, anchor and seed;
* :mod:`repro.parallel.engine` — deterministic ``(location, chunk)``
  sharding of characterisation sweeps; ``jobs`` alone picks the first
  attempt's path (a ``ProcessPoolExecutor`` when ``jobs > 1``, inline
  otherwise), bit-identical to the serial path at any worker count;
* :mod:`repro.parallel.retry` — the resilience layer's bookkeeping:
  per-shard attempt histories, quarantine dispositions and the typed
  :class:`SweepOutcome` returned by :func:`run_sweep` (see
  ``docs/resilience.md``).
"""

from .cache import (
    CacheStats,
    PlacedDesignCache,
    PlacedKey,
    get_default_cache,
    multiplier_netlist,
    set_default_cache,
)
from .engine import (
    Shard,
    ShardResult,
    SweepPlan,
    run_shard,
    run_sweep,
)
from .jobs import REPRO_JOBS_ENV, resolve_jobs
from .retry import ShardAttempt, ShardReport, SweepOutcome, backoff_delay

__all__ = [
    "REPRO_JOBS_ENV",
    "CacheStats",
    "PlacedDesignCache",
    "PlacedKey",
    "Shard",
    "ShardAttempt",
    "ShardReport",
    "ShardResult",
    "SweepOutcome",
    "SweepPlan",
    "backoff_delay",
    "get_default_cache",
    "multiplier_netlist",
    "resolve_jobs",
    "run_shard",
    "run_sweep",
    "set_default_cache",
]
