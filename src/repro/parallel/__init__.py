"""Performance layer: process-pool sweeps and the placed-design cache.

Coordinated pieces (see ``docs/performance.md``):

* :func:`resolve_jobs` / ``REPRO_JOBS`` — one worker-count knob shared by
  the library, the CLIs and the benchmarks (default 1: serial);
* :class:`PlacedDesignCache` — memory + disk memoisation of
  :class:`~repro.synthesis.flow.PlacedDesign` keyed by device identity,
  geometry, anchor and seed; the disk tier is a checksummed
  content-addressed store that concurrent processes can share;
* :mod:`repro.parallel.engine` — deterministic ``(location, chunk)``
  sharding of characterisation sweeps; ``jobs`` alone picks the first
  attempt's path (a ``ProcessPoolExecutor`` when ``jobs > 1``, inline
  otherwise), bit-identical to the serial path at any worker count;
* :mod:`repro.parallel.retry` — the resilience layer's bookkeeping:
  per-shard attempt histories, quarantine dispositions and the typed
  :class:`SweepOutcome` returned by :func:`run_sweep` (see
  ``docs/resilience.md``);
* :mod:`repro.parallel.sanitize` — the ``REPRO_SANITIZE=1`` runtime
  cache-race detector guarding the shared disk tier (see
  ``docs/static_analysis.md``).
"""

from .cache import (
    REPRO_CACHE_DIR_ENV,
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
    execute_shards,
    run_shard,
    run_sweep,
)
from .jobs import REPRO_JOBS_ENV, resolve_jobs
from .retry import ShardAttempt, ShardReport, SweepOutcome, backoff_delay
from .sanitize import (
    REPRO_SANITIZE_ENV,
    CacheSanitizer,
    SanitizerViolation,
    read_journal,
    sanitize_enabled,
)

__all__ = [
    "REPRO_CACHE_DIR_ENV",
    "REPRO_JOBS_ENV",
    "REPRO_SANITIZE_ENV",
    "CacheSanitizer",
    "SanitizerViolation",
    "read_journal",
    "sanitize_enabled",
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
    "execute_shards",
    "get_default_cache",
    "multiplier_netlist",
    "resolve_jobs",
    "run_shard",
    "run_sweep",
    "set_default_cache",
]
