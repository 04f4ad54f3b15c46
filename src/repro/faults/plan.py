"""Deterministic fault plans for chaos-testing sharded sweeps.

The paper operates hardware past its guaranteed envelope and reasons
about the induced errors; this module does the same to the *software*
stack.  A :class:`FaultPlan` names, ahead of time, which shards of a
characterisation sweep misbehave, how, and on which attempts.  Plans are
pure data — seeded off the same integer seed space as the sweep's
:class:`~repro.rng.SeedTree` — so a chaos run is bit-reproducible: the
same plan fires the same faults at the same shards every time.

Arming
------
Programmatically (pass a plan to ``run_sweep``/``characterize_multiplier``)
or via the ``REPRO_FAULTS`` environment variable, which accepts inline
JSON or ``@/path/to/plan.json``::

    REPRO_FAULTS='{"seed": 7, "specs": [{"kind": "crash", "li": 0, "start": 0}]}'
    REPRO_FAULTS='[{"kind": "corrupt", "times": 1}]'        # bare spec list
    REPRO_FAULTS=@chaos/plan.json
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..errors import FaultPlanError

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultSpec", "REPRO_FAULTS_ENV"]

#: Environment variable arming a process-wide fault plan.
REPRO_FAULTS_ENV = "REPRO_FAULTS"

#: The fault taxonomy (docs/resilience.md maps each to a hardware analogue).
FAULT_KINDS = ("crash", "hang", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: what goes wrong, where, and how often.

    Attributes
    ----------
    kind:
        ``crash`` raises :class:`~repro.errors.InjectedFaultError` before
        the shard computes; ``hang`` sleeps ``hang_s`` seconds before
        computing (long enough to trip a pool timeout); ``corrupt``
        replaces the shard's statistic blocks with NaN after computing.
    li / start:
        Target shard coordinates (location index, multiplicand-chunk
        start); ``None`` matches any value — a spec with both ``None``
        fires on every shard.
    times:
        Fire on the first ``times`` attempts of each matching shard, so a
        retried shard eventually succeeds; ``-1`` means persistent (every
        attempt), which exercises quarantine.
    rate:
        Deterministic thinning in ``(0, 1]``: the fault fires only when a
        hash of ``(plan seed, spec, shard, attempt)`` falls below
        ``rate``.  1.0 (default) always fires on matching attempts.
    hang_s:
        Sleep duration of a ``hang`` fault.
    """

    kind: str
    li: int | None = None
    start: int | None = None
    times: int = 1
    rate: float = 1.0
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.li is not None and self.li < 0:
            raise FaultPlanError(f"li must be >= 0 or None, got {self.li}")
        if self.start is not None and self.start < 0:
            raise FaultPlanError(f"start must be >= 0 or None, got {self.start}")
        if self.times == 0 or self.times < -1:
            raise FaultPlanError(
                f"times must be a positive attempt count or -1 (persistent), got {self.times}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise FaultPlanError(f"rate must be in (0, 1], got {self.rate}")
        if self.hang_s <= 0:
            raise FaultPlanError(f"hang_s must be positive, got {self.hang_s}")

    @property
    def persistent(self) -> bool:
        """Does this spec fire on every attempt (quarantine material)?"""
        return self.times < 0

    def matches_shard(self, li: int, start: int) -> bool:
        """Does this spec target the shard at ``(li, start)`` (any attempt)?"""
        if self.li is not None and self.li != li:
            return False
        if self.start is not None and self.start != start:
            return False
        return True

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "li": self.li,
            "start": self.start,
            "times": self.times,
            "rate": self.rate,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault spec must be an object, got {data!r}")
        unknown = set(data) - {"kind", "li", "start", "times", "rate", "hang_s"}
        if unknown:
            raise FaultPlanError(f"unknown fault-spec fields {sorted(unknown)}")
        if "kind" not in data:
            raise FaultPlanError("fault spec is missing 'kind'")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` rules plus the chaos seed.

    The seed feeds the deterministic ``rate`` thinning and the retry
    backoff jitter; two runs of the same plan over the same sweep fire
    bit-identically.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Tolerate lists from JSON decoding without breaking frozen-ness.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def persistent_specs(self) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.persistent)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "specs": [s.as_dict() for s in self.specs]}

    def describe(self) -> str:
        """Human-readable one-line-per-spec rendering."""
        if self.is_empty:
            return "empty fault plan (no specs)"
        lines = [f"fault plan: {len(self.specs)} spec(s), seed {self.seed}"]
        for i, s in enumerate(self.specs):
            where = (
                f"li={'*' if s.li is None else s.li}"
                f" start={'*' if s.start is None else s.start}"
            )
            when = "persistent" if s.persistent else f"first {s.times} attempt(s)"
            extra = f" rate={s.rate}" if s.rate < 1.0 else ""
            extra += f" hang_s={s.hang_s}" if s.kind == "hang" else ""
            lines.append(f"  [{i}] {s.kind:<12} {where:<18} {when}{extra}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: object) -> "FaultPlan":
        """Build a plan from decoded JSON: an object or a bare spec list."""
        if isinstance(data, list):
            data = {"specs": data}
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object or spec list, got {type(data).__name__}"
            )
        unknown = set(data) - {"seed", "specs"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan fields {sorted(unknown)}")
        specs = data.get("specs", [])
        if not isinstance(specs, (list, tuple)):
            raise FaultPlanError("'specs' must be a list")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultPlanError(f"'seed' must be an integer, got {seed!r}")
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in specs), seed=seed
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a CLI/env value: inline JSON or ``@path`` to a JSON file."""
        spec = spec.strip()
        if not spec:
            return cls()
        if spec.startswith("@"):
            path = spec[1:]
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    spec = fh.read()
            except OSError as exc:
                raise FaultPlanError(f"cannot read fault plan {path!r}: {exc}") from None
        return cls.from_json(spec)

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "FaultPlan | None":
        """The plan armed via ``REPRO_FAULTS``, or ``None`` when unset."""
        env = os.environ if environ is None else environ
        raw = env.get(REPRO_FAULTS_ENV)
        if raw is None or not raw.strip():
            return None
        return cls.from_spec(raw)
