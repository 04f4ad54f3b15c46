"""Retry bookkeeping and typed sweep outcomes for the shard engine.

The engine's hardened execution path (:func:`repro.parallel.engine.run_sweep`)
records every attempt at every shard into a :class:`SweepOutcome` so
callers can distinguish *complete* (every shard produced a result),
*degraded* (some shards quarantined after exhausting retries) and
*failed* (nothing usable) sweeps without parsing logs.

Backoff delays are deterministic: the jitter is hashed from the sweep
seed and the shard identity through :func:`repro.rng.derive_seed`, so a
chaos run replays with identical timing decisions (the delays themselves
are wall-clock, the *choices* are reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import ResilienceSettings
from ..errors import SweepFailedError
from ..rng import derive_seed

if TYPE_CHECKING:
    from .engine import ShardResult

__all__ = [
    "ShardAttempt",
    "ShardReport",
    "SweepOutcome",
    "backoff_delay",
]

#: Attempt outcomes recorded by the engine.
ATTEMPT_OK = "ok"
ATTEMPT_ERROR = "error"
ATTEMPT_TIMEOUT = "timeout"
ATTEMPT_INVALID = "invalid"

#: Growth factor and cap (seconds) of the backoff schedule.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0

#: Shard dispositions after the sweep finished.
DISPOSITION_COMPLETED = "completed"
DISPOSITION_RECOVERED = "recovered"
DISPOSITION_QUARANTINED = "quarantined"


def backoff_delay(
    settings: ResilienceSettings, seed: int, retry: int, *path: str
) -> float:
    """Delay in seconds before retry ``retry`` (0-based) of one shard.

    Exponential schedule ``base * BACKOFF_FACTOR**retry`` capped at
    :data:`BACKOFF_MAX_S`, spread by a deterministic jitter factor in
    ``[1 - j, 1 + j]`` hashed from ``(seed, path, retry)`` —
    reproducible, yet decorrelated across shards so a pool of retries
    does not stampede.
    """
    delay = min(BACKOFF_MAX_S, settings.backoff_base_s * BACKOFF_FACTOR**retry)
    if settings.backoff_jitter > 0.0 and delay > 0.0:
        u = derive_seed(seed, "backoff", *path, str(retry)) / float(2**63)
        delay *= 1.0 + settings.backoff_jitter * (2.0 * u - 1.0)
    return max(0.0, delay)


@dataclass(frozen=True)
class ShardAttempt:
    """One try at one shard: what happened and how long it took."""

    attempt: int
    outcome: str  # ok | error | timeout | invalid
    latency_s: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == ATTEMPT_OK

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "latency_s": self.latency_s,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ShardReport:
    """The full attempt history and final disposition of one shard."""

    index: int
    li: int
    start: int
    attempts: tuple[ShardAttempt, ...]
    disposition: str  # completed | recovered | quarantined

    @property
    def ok(self) -> bool:
        return self.disposition != DISPOSITION_QUARANTINED

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "li": self.li,
            "start": self.start,
            "disposition": self.disposition,
            "attempts": [a.as_dict() for a in self.attempts],
        }


@dataclass(frozen=True)
class SweepOutcome:
    """Typed result of one hardened sweep execution.

    Attributes
    ----------
    results:
        Per-shard results in shard order; ``None`` marks a quarantined
        shard.  (Typed loosely to keep this module import-light.)
    reports:
        Per-shard attempt histories, same order.
    fallback_inline:
        The pool was abandoned mid-sweep (timeout or broken pool) and the
        remaining shards ran inline in the parent process.
    pool_broken:
        The process pool died (worker crash killing the executor).
    """

    results: tuple["ShardResult | None", ...]
    reports: tuple[ShardReport, ...]
    fallback_inline: bool = False
    pool_broken: bool = False

    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """``complete`` | ``degraded`` | ``failed``."""
        if not self.reports:
            return "complete"
        ok = sum(1 for r in self.reports if r.ok)
        if ok == len(self.reports):
            return "complete"
        return "degraded" if ok > 0 else "failed"

    @property
    def quarantined(self) -> tuple[tuple[int, int], ...]:
        """``(li, start)`` of every quarantined shard, in shard order."""
        return tuple(
            (r.li, r.start)
            for r in self.reports
            if r.disposition == DISPOSITION_QUARANTINED
        )

    @property
    def total_attempts(self) -> int:
        return sum(r.n_attempts for r in self.reports)

    @property
    def retried(self) -> tuple[tuple[int, int], ...]:
        """Shards that needed more than one attempt (recovered or not)."""
        return tuple(
            (r.li, r.start) for r in self.reports if r.n_attempts > 1
        )

    # ------------------------------------------------------------------
    def raise_for_status(self, allow_degraded: bool = False) -> None:
        """Raise :class:`~repro.errors.SweepFailedError` on unusable sweeps."""
        status = self.status
        if status == "complete":
            return
        if status == "degraded" and allow_degraded:
            return
        quarantined = ", ".join(
            f"(li={li}, start={start})" for li, start in self.quarantined
        )
        raise SweepFailedError(
            f"sweep {status}: {len(self.quarantined)}/{len(self.reports)} "
            f"shard(s) quarantined after retries: {quarantined}",
            outcome=self,
        )

    def as_dict(self) -> dict:
        """JSON-ready summary (persisted next to workspace artefacts)."""
        return {
            "status": self.status,
            "n_shards": len(self.reports),
            "n_quarantined": len(self.quarantined),
            "quarantined": [list(q) for q in self.quarantined],
            "total_attempts": self.total_attempts,
            "fallback_inline": self.fallback_inline,
            "pool_broken": self.pool_broken,
            "reports": [r.as_dict() for r in self.reports],
        }
