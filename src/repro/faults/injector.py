"""Arming and firing of :class:`~repro.faults.plan.FaultPlan` rules.

The :class:`FaultInjector` is the only piece of the chaos machinery the
execution engine talks to.  It is deliberately stateless between calls:
every firing decision is a pure function of ``(plan, shard, attempt)``,
hashed through :func:`repro.rng.derive_seed`, so pool workers and the
inline path agree on what fires without any shared mutable state.

Injection points inside :func:`repro.parallel.engine.run_shard`:

* ``fire_pre`` — before placement: ``hang`` (sleep), then ``crash``
  (raise :class:`~repro.errors.InjectedFaultError`);
* ``mutate_result`` — after computation: ``corrupt`` replaces the
  statistic blocks with NaN, which the engine's result validation
  detects and treats as a failed attempt.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InjectedFaultError
from ..rng import derive_seed
from .plan import FaultPlan, FaultSpec

if TYPE_CHECKING:  # circularity guard: parallel imports faults eagerly
    from ..parallel.engine import Shard, ShardResult

__all__ = ["FaultInjector"]


class FaultInjector:
    """Fires the faults of one plan deterministically."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------
    def _fires(self, spec: FaultSpec, li: int, start: int, attempt: int) -> bool:
        """Pure firing decision for one spec on one shard attempt."""
        if not spec.matches_shard(li, start):
            return False
        if not spec.persistent and attempt >= spec.times:
            return False
        if spec.rate < 1.0:
            u = derive_seed(
                self.plan.seed,
                "faults",
                spec.kind,
                str(spec.li),
                str(spec.start),
                str(li),
                str(start),
                str(attempt),
            ) / float(2**63)
            if u >= spec.rate:
                return False
        return True

    def active(self, li: int, start: int, attempt: int) -> tuple[FaultSpec, ...]:
        """All specs firing on this ``(shard, attempt)`` — for tests/CLI."""
        return tuple(
            s for s in self.plan.specs if self._fires(s, li, start, attempt)
        )

    # ------------------------------------------------------------------
    def fire_pre(self, shard: "Shard", attempt: int) -> None:
        """Fire the pre-computation faults for this shard attempt."""
        for spec in self.plan.specs:
            if spec.kind == "hang" and self._fires(
                spec, shard.li, shard.start, attempt
            ):
                time.sleep(spec.hang_s)
        for spec in self.plan.specs:
            if spec.kind == "crash" and self._fires(
                spec, shard.li, shard.start, attempt
            ):
                raise InjectedFaultError(
                    f"injected crash: shard (li={shard.li}, start={shard.start}) "
                    f"attempt {attempt}"
                )

    def mutate_result(
        self, result: "ShardResult", shard: "Shard", attempt: int
    ) -> "ShardResult":
        """Apply any active ``corrupt`` fault to a computed result."""
        for spec in self.plan.specs:
            if spec.kind == "corrupt" and self._fires(
                spec, shard.li, shard.start, attempt
            ):
                return replace(
                    result,
                    variance=np.full_like(result.variance, np.nan),
                    mean=np.full_like(result.mean, np.nan),
                    error_rate=np.full_like(result.error_rate, np.nan),
                )
        return result
