"""Word-level dataflow analysis: a fixed-point abstract interpreter.

Two cooperating abstract domains run over the LUT DAG:

* **known-bits** — every net carries one of three codes: provably 0,
  provably 1, or unknown (``⊤``).  LUT nodes transfer known fanin bits
  through their truth tables by enumerating the (at most 16) rows
  consistent with the known bits; the output is known exactly when all
  consistent rows agree.
* **integer ranges** — named buses carry ``[lo, hi]`` intervals.  Input
  assumptions enter the bit lattice through the shared-prefix rule (all
  values in a contiguous two's-complement pattern range agree on every
  bit position above ``bit_length(lo XOR hi)``); bus ranges are read
  back out of the bit lattice with per-bit weights (the sign bit of a
  signed bus weighs ``-2**(w-1)``).

Soundness contract: a bit reported as known 0/1 holds for *every*
concrete input consistent with the assumptions, and a reported bus
range contains every reachable bus value.  The converse is not promised
— the analysis over-approximates (a ``⊤`` bit may still be constant in
reality).  The timing hooks (:attr:`DataflowResult.node_static`,
:attr:`DataflowResult.edge_active`) expose only node-level constancy,
which is the strongest pruning that stays sound against the
transition-settle model in :mod:`repro.timing.simulator`: a node whose
value provably never changes settles at t = 0 under any stimulus, while
per-row truth-table sensitisation arguments do not survive that model's
"max over changed fanins" settle rule and are deliberately not used.

The public entry point is :func:`analyze_dataflow`; linting and STA go
through :meth:`repro.analysis.context.AnalysisContext.dataflow`, which
memoises runs per assumption set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from ..errors import AnalysisError
from ..netlist.core import MAX_LUT_ARITY, CompiledNetlist, Netlist
from .context import KIND_CONST, AnalysisContext

__all__ = [
    "BIT_ZERO",
    "BIT_ONE",
    "BIT_TOP",
    "IntRange",
    "RangeLike",
    "DataflowResult",
    "analyze_dataflow",
    "analyze_context",
    "normalize_assumptions",
    "assumption_problems",
    "cache_key",
]

# Known-bits lattice codes (uint8 in the per-node array).
BIT_ZERO: int = 0
BIT_ONE: int = 1
BIT_TOP: int = 2


@dataclass(frozen=True)
class IntRange:
    """A closed integer interval ``[lo, hi]`` (Python ints, arbitrary width)."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise AnalysisError(f"empty range [{self.lo}, {self.hi}]")

    @property
    def singleton(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> int:
        """Number of values covered."""
        return self.hi - self.lo + 1

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and self.lo <= value <= self.hi

    def intersect(self, other: "IntRange") -> "IntRange | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return IntRange(lo, hi) if lo <= hi else None

    def as_tuple(self) -> tuple[int, int]:
        return (self.lo, self.hi)


RangeLike = Union[int, tuple[int, int], IntRange]


def _coerce_range(value: RangeLike, bus: str) -> IntRange:
    if isinstance(value, IntRange):
        return value
    if isinstance(value, bool):  # bool is an int; reject explicitly
        raise AnalysisError(f"assumption for bus {bus!r} must be int or (lo, hi)")
    if isinstance(value, int):
        return IntRange(int(value), int(value))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        lo, hi = value
        if isinstance(lo, int) and isinstance(hi, int):
            if lo > hi:
                raise AnalysisError(
                    f"assumption for bus {bus!r}: empty range [{lo}, {hi}]"
                )
            return IntRange(int(lo), int(hi))
    raise AnalysisError(
        f"assumption for bus {bus!r} must be an int, an (lo, hi) tuple or an "
        f"IntRange, got {value!r}"
    )


def representable_range(width: int, signed: bool) -> IntRange:
    """The value interval a ``width``-bit (un)signed bus can carry."""
    if width <= 0:
        return IntRange(0, 0)
    if signed:
        return IntRange(-(1 << (width - 1)), (1 << (width - 1)) - 1)
    return IntRange(0, (1 << width) - 1)


def assumption_problems(
    ctx: AnalysisContext, assumptions: Mapping[str, RangeLike]
) -> list[str]:
    """Describe assumption/interface contradictions (for rule WL001).

    Returns human-readable problems: unknown bus names and ranges that
    overflow the bus's representable interval.  An empty list means
    :func:`normalize_assumptions` will accept the assumptions unchanged.
    """
    problems: list[str] = []
    for bus in sorted(assumptions):
        if bus not in ctx.input_buses:
            problems.append(
                f"assumption names unknown input bus {bus!r} "
                f"(inputs: {sorted(ctx.input_buses)})"
            )
            continue
        rng = _coerce_range(assumptions[bus], bus)
        width = len(ctx.input_buses[bus])
        signed = ctx.bus_signed(bus)
        rep = representable_range(width, signed)
        if rng.lo < rep.lo or rng.hi > rep.hi:
            kind = "signed" if signed else "unsigned"
            problems.append(
                f"assumption [{rng.lo}, {rng.hi}] overflows {kind} "
                f"{width}-bit input bus {bus!r} "
                f"(representable [{rep.lo}, {rep.hi}])"
            )
    return problems


def normalize_assumptions(
    ctx: AnalysisContext,
    assumptions: Mapping[str, RangeLike] | None,
    clamp: bool = False,
) -> dict[str, IntRange]:
    """Validate assumptions against the context's input buses.

    With ``clamp=True``, out-of-bounds ranges are intersected with the
    bus's representable interval (dropped entirely when disjoint, which
    is the sound over-approximation) instead of raising; unknown buses
    always raise.
    """
    if not assumptions:
        return {}
    out: dict[str, IntRange] = {}
    for bus in sorted(assumptions):
        if bus not in ctx.input_buses:
            raise AnalysisError(
                f"assumption names unknown input bus {bus!r} "
                f"(inputs: {sorted(ctx.input_buses)})"
            )
        rng = _coerce_range(assumptions[bus], bus)
        rep = representable_range(len(ctx.input_buses[bus]), ctx.bus_signed(bus))
        if rng.lo < rep.lo or rng.hi > rep.hi:
            if not clamp:
                raise AnalysisError(
                    f"assumption [{rng.lo}, {rng.hi}] does not fit bus "
                    f"{bus!r} (representable [{rep.lo}, {rep.hi}]); "
                    "fix the assumption or pass clamp=True"
                )
            clamped = rng.intersect(rep)
            if clamped is None:
                continue  # disjoint: no usable constraint, leave bus at ⊤
            rng = clamped
        out[bus] = rng
    return out


def cache_key(
    assumptions: Mapping[str, RangeLike] | None,
) -> tuple[tuple[str, int, int], ...]:
    """Canonical hashable key for one assumption set."""
    if not assumptions:
        return ()
    items: list[tuple[str, int, int]] = []
    for bus in sorted(assumptions):
        rng = _coerce_range(assumptions[bus], bus)
        items.append((bus, rng.lo, rng.hi))
    return tuple(items)


# ----------------------------------------------------------------------
# lattice conversions
# ----------------------------------------------------------------------
def range_to_bits(rng: IntRange, width: int, signed: bool) -> list[int]:
    """Known-bits codes (LSB first) sound for every value in ``rng``.

    Uses the shared-prefix rule on the two's-complement bit patterns:
    for a contiguous pattern interval ``[plo, phi]`` every member agrees
    with ``plo`` on all bit positions at or above
    ``bit_length(plo XOR phi)``.  A signed range straddling zero has no
    contiguous pattern interval (the sign bit splits it), so every bit
    is ``⊤``.
    """
    if width <= 0:
        return []
    if signed and rng.lo < 0 <= rng.hi:
        return [BIT_TOP] * width
    offset = (1 << width) if rng.lo < 0 else 0
    plo, phi = rng.lo + offset, rng.hi + offset
    known_from = (plo ^ phi).bit_length()
    codes: list[int] = []
    for i in range(width):
        if i >= known_from:
            codes.append((plo >> i) & 1)
        else:
            codes.append(BIT_TOP)
    return codes


def bits_to_range(codes: Sequence[int], signed: bool) -> IntRange:
    """Tightest interval containing every value consistent with ``codes``."""
    width = len(codes)
    if width == 0:
        return IntRange(0, 0)
    lo = 0
    hi = 0
    for i, code in enumerate(codes):
        weight = -(1 << (width - 1)) if (signed and i == width - 1) else (1 << i)
        if code == BIT_ONE:
            lo += weight
            hi += weight
        elif code == BIT_TOP:
            lo += min(0, weight)
            hi += max(0, weight)
    return IntRange(lo, hi)


def _lut_transfer(tt: int, fanin_codes: Sequence[int]) -> int:
    """Abstract LUT output over known fanin bits.

    Enumerates the truth-table rows consistent with the known bits; the
    output is known iff all consistent rows agree.  At least one row is
    always consistent, so the result is well-defined.
    """
    arity = len(fanin_codes)
    seen: int = -1
    for row in range(1 << arity):
        consistent = True
        for k in range(arity):
            code = fanin_codes[k]
            if code != BIT_TOP and code != ((row >> k) & 1):
                consistent = False
                break
        if not consistent:
            continue
        value = (tt >> row) & 1
        if seen < 0:
            seen = value
        elif seen != value:
            return BIT_TOP
    return BIT_ONE if seen == 1 else BIT_ZERO


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------
@dataclass
class DataflowResult:
    """Outcome of one fixed-point run over a netlist DAG.

    Attributes
    ----------
    bits:
        ``(n_nodes,)`` uint8 array of known-bits codes
        (``BIT_ZERO`` / ``BIT_ONE`` / ``BIT_TOP``).
    assumptions:
        The normalised input-range assumptions the run used.
    iterations:
        Forward passes until the fixed point (2 for any DAG: one to
        compute, one to confirm stability).
    """

    ctx: AnalysisContext
    assumptions: dict[str, IntRange]
    bits: np.ndarray
    iterations: int

    # -- timing hooks ---------------------------------------------------
    @cached_property
    def node_static(self) -> np.ndarray:
        """``(n,)`` bool: node value is provably constant (never toggles)."""
        static: np.ndarray = self.bits != BIT_TOP
        return static

    @cached_property
    def edge_active(self) -> np.ndarray:
        """``(n, 4)`` bool: LUT fanin edge can carry a transition.

        An edge is inactive when its driver is provably constant (or the
        position is padding past the LUT's arity).  This is node-level
        pruning only — see the module docstring for why finer
        truth-table sensitisation would be unsound against the
        transition-settle timing model.
        """
        ctx = self.ctx
        active = np.zeros((ctx.n_nodes, MAX_LUT_ARITY), dtype=bool)
        static = self.node_static
        for nid in range(ctx.n_nodes):
            if not ctx.is_lut(nid):
                continue
            for k, f in enumerate(ctx.fanins[nid]):
                active[nid, k] = not static[f]
        return active

    # -- word-level queries ---------------------------------------------
    def bus_codes(self, name: str) -> list[int]:
        """Known-bits codes of a named bus, LSB first."""
        buses = (
            self.ctx.input_buses if name in self.ctx.input_buses else self.ctx.output_buses
        )
        if name not in buses:
            raise AnalysisError(f"unknown bus {name!r}")
        return [int(self.bits[b]) for b in buses[name]]

    def bus_range(self, name: str) -> IntRange:
        """Sound value interval for a named (input or output) bus."""
        return bits_to_range(self.bus_codes(name), self.ctx.bus_signed(name))

    @property
    def output_ranges(self) -> dict[str, IntRange]:
        return {name: self.bus_range(name) for name in sorted(self.ctx.output_buses)}

    def known_output_bits(self, name: str) -> list[tuple[int, int]]:
        """``(bit index, constant value)`` pairs provably fixed on a bus."""
        codes = self.bus_codes(name)
        return [(i, c) for i, c in enumerate(codes) if c != BIT_TOP]

    def static_luts(self) -> list[int]:
        """Live LUT nodes whose output is provably constant."""
        live = self.ctx.live
        static = self.node_static
        return [
            nid
            for nid in range(self.ctx.n_nodes)
            if self.ctx.is_lut(nid) and static[nid] and live[nid]
        ]

    def constant_value(self, name: str) -> int | None:
        """The bus's exact value when every bit is known, else ``None``."""
        rng = self.bus_range(name)
        return rng.lo if rng.singleton else None

    def as_dict(self) -> dict[str, object]:
        n_static_luts = len(self.static_luts())
        return {
            "netlist": self.ctx.name,
            "n_nodes": self.ctx.n_nodes,
            "iterations": self.iterations,
            "assumptions": {k: v.as_tuple() for k, v in self.assumptions.items()},
            "n_known_bits": int((self.bits != BIT_TOP).sum()),
            "n_static_live_luts": n_static_luts,
            "output_ranges": {
                k: v.as_tuple() for k, v in self.output_ranges.items()
            },
            "known_output_bits": {
                name: self.known_output_bits(name)
                for name in sorted(self.ctx.output_buses)
            },
        }


def _iter_lut_ids(ctx: AnalysisContext) -> Iterator[int]:
    for nid in range(ctx.n_nodes):
        if ctx.is_lut(nid):
            yield nid


def analyze_context(
    ctx: AnalysisContext,
    assumptions: Mapping[str, RangeLike] | None = None,
    clamp: bool = False,
) -> DataflowResult:
    """Run the abstract interpretation over a prepared context."""
    if not ctx.sound:
        raise AnalysisError(
            f"netlist {ctx.name!r} is structurally unsound; fix NL000 "
            f"findings before dataflow analysis: {ctx.structure_errors[0]}"
        )
    normalized = normalize_assumptions(ctx, assumptions, clamp=clamp)

    bits = np.full(ctx.n_nodes, BIT_TOP, dtype=np.uint8)
    for nid in range(ctx.n_nodes):
        if ctx.kinds[nid] == KIND_CONST:
            bits[nid] = BIT_ONE if ctx.const_values[nid] else BIT_ZERO
    for bus, rng in normalized.items():
        ids = ctx.input_buses[bus]
        codes = range_to_bits(rng, len(ids), ctx.bus_signed(bus))
        for b, code in zip(ids, codes):
            # An input node can sit on several buses; meet the constraints
            # (conflicts cannot arise from representable ranges on one bus,
            # but a shared node across buses takes the tighter fact).
            if code != BIT_TOP:
                bits[b] = code

    # Fixed-point forward iteration.  Fanins precede consumers (checked
    # by the structural gate above), so the first pass already computes
    # the fixpoint and the second confirms stability; the loop shape is
    # kept so the invariant is enforced, not assumed.
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for nid in _iter_lut_ids(ctx):
            fanin_codes = [int(bits[f]) for f in ctx.fanins[nid]]
            new = _lut_transfer(ctx.tts[nid], fanin_codes)
            if new != bits[nid]:
                bits[nid] = new
                changed = True
        if iterations > ctx.n_nodes + 1:  # pragma: no cover - defensive
            raise AnalysisError(
                f"dataflow on {ctx.name!r} failed to reach a fixed point"
            )

    return DataflowResult(
        ctx=ctx, assumptions=normalized, bits=bits, iterations=iterations
    )


def analyze_dataflow(
    netlist: Netlist | CompiledNetlist,
    assumptions: Mapping[str, RangeLike] | None = None,
    clamp: bool = False,
) -> DataflowResult:
    """Abstractly interpret a netlist under optional input assumptions.

    Parameters
    ----------
    netlist:
        Builder or compiled form.
    assumptions:
        Bus name -> exact value (``int``), ``(lo, hi)`` tuple or
        :class:`IntRange`.  Only input buses may be constrained.
    clamp:
        Intersect out-of-bounds assumptions with the bus's representable
        interval instead of raising.

    Returns
    -------
    DataflowResult
        Known-bits per node, per-bus ranges, and the node-constancy
        masks consumed by sensitisation-aware STA.
    """
    ctx = AnalysisContext.build(netlist, assumptions=assumptions)
    return analyze_context(ctx, assumptions, clamp=clamp)
