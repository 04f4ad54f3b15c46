"""Truth-table lowering: each LUT becomes a minimal boolean expression.

A per-sample evaluator resolves every LUT with a ``take_along_axis``
gather into its 16-row table.  The bit-sliced kernel instead evaluates
64 samples per ``uint64`` word, which requires each truth table to be
expressed as bitwise operations over the fanin words.
This module performs that lowering **once per distinct ``(arity, tt)``
pair** at plan-compile time:

1. the function is projected onto its true support (padded or vacuous
   fanins disappear — a BUF-of-anything becomes a copy);
2. constants, single literals and parities (XOR/XNOR chains) are
   recognised structurally — parity would otherwise explode into a
   worst-case sum of products;
3. everything else goes through a small Quine–McCluskey pass: prime
   implicants over at most 4 variables, essential implicants first,
   then a greedy deterministic cover.

Every lowered form is re-evaluated over all ``2**arity`` rows and
checked against the original table before it is accepted
(:func:`lower_tt` raises :class:`~repro.errors.KernelError` on any
mismatch), so a lowering bug cannot silently corrupt results — the
packed kernel is bit-identical to the table by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import KernelError

__all__ = [
    "OP_AND",
    "OP_CONST",
    "OP_LITERAL",
    "OP_OR",
    "OP_SOP",
    "OP_XOR",
    "Literal",
    "LoweredLUT",
    "Term",
    "eval_lowered",
    "lower_tt",
]

#: Lowered-operation kinds (also the group keys of the execution plan).
OP_CONST = "const"  # constant 0/1
OP_LITERAL = "lit"  # one (possibly negated) fanin
OP_XOR = "xor"  # parity over >= 2 fanins, possibly inverted
OP_AND = "and"  # single product term over >= 2 literals
OP_OR = "or"  # single sum term over >= 2 literals
OP_SOP = "sop"  # OR of >= 2 product terms


@dataclass(frozen=True)
class Literal:
    """One fanin occurrence: fanin slot ``var`` (0..3), negated or not."""

    var: int
    negated: bool


#: One product term of a sum-of-products: a tuple of literals.
Term = tuple[Literal, ...]


@dataclass(frozen=True)
class LoweredLUT:
    """One truth table lowered to a bitwise expression.

    Attributes
    ----------
    kind:
        One of the ``OP_*`` constants.
    value:
        The constant value for ``OP_CONST`` (0 or 1); unused otherwise.
    invert:
        For ``OP_XOR``: complement the parity (XNOR chain).
    literal:
        For ``OP_LITERAL``: the single fanin occurrence.
    vars:
        For ``OP_XOR``: the fanin slots xored together, ascending.
    terms:
        For ``OP_AND``/``OP_OR``: one term (the ``OP_OR`` term holds the
        *sum* literals).  For ``OP_SOP``: all product terms.
    """

    kind: str
    value: int = 0
    invert: bool = False
    literal: Literal | None = None
    vars: tuple[int, ...] = ()
    terms: tuple[Term, ...] = ()

    @property
    def group_key(self) -> tuple[object, ...]:
        """Hashable structure key: nodes sharing it execute as one batch."""
        if self.kind == OP_CONST:
            return (self.kind, self.value)
        if self.kind == OP_LITERAL:
            assert self.literal is not None
            return (self.kind, self.literal.var, self.literal.negated)
        if self.kind == OP_XOR:
            return (self.kind, self.vars, self.invert)
        return (self.kind, self.terms)

    @property
    def n_ops(self) -> int:
        """Rough bitwise-op count of one word evaluation (for diagnostics)."""
        if self.kind == OP_CONST:
            return 1
        if self.kind == OP_LITERAL:
            return 1 + int(self.literal.negated if self.literal else 0)
        if self.kind == OP_XOR:
            return len(self.vars) - 1 + int(self.invert)
        return sum(
            len(t) - 1 + sum(1 for lit in t if lit.negated) for t in self.terms
        ) + max(0, len(self.terms) - 1)


def _support(tt: int, arity: int) -> list[int]:
    """Fanin slots the function actually depends on."""
    rows = 1 << arity
    support = []
    for k in range(arity):
        bit = 1 << k
        if any(
            ((tt >> r) & 1) != ((tt >> (r ^ bit)) & 1) for r in range(rows)
        ):
            support.append(k)
    return support


def _project(tt: int, arity: int, support: list[int]) -> int:
    """The function restricted to ``support`` (non-support inputs at 0)."""
    g = 0
    for rp in range(1 << len(support)):
        r = 0
        for j, k in enumerate(support):
            if (rp >> j) & 1:
                r |= 1 << k
        if (tt >> r) & 1:
            g |= 1 << rp
    return g


def _parity_form(g: int, s: int) -> bool | None:
    """``False``/``True`` for XOR/XNOR over all ``s`` vars, else ``None``."""
    for invert in (False, True):
        if all(
            ((g >> r) & 1) == ((bin(r).count("1") & 1) ^ int(invert))
            for r in range(1 << s)
        ):
            return invert
    return None


# ----------------------------------------------------------------------
# Quine–McCluskey on <= 4 variables.  An implicant is (value, care): it
# covers row r iff (r & care) == (value & care).
def _prime_implicants(minterms: list[int], s: int) -> list[tuple[int, int]]:
    full_care = (1 << s) - 1
    current = {(m, full_care) for m in minterms}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        used: set[tuple[int, int]] = set()
        pairs = sorted(current)
        for i, (v1, c1) in enumerate(pairs):
            for v2, c2 in pairs[i + 1 :]:
                if c1 != c2:
                    continue
                diff = (v1 ^ v2) & c1
                if diff and (diff & (diff - 1)) == 0:  # differ in one care bit
                    merged.add((v1 & ~diff & c1, c1 & ~diff))
                    used.add((v1, c1))
                    used.add((v2, c2))
        primes.update(current - used)
        current = merged
    return sorted(primes)


def _cover(minterms: list[int], primes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Essential-first greedy cover; deterministic by sorted tie-break."""

    def covers(imp: tuple[int, int], m: int) -> bool:
        value, care = imp
        return (m & care) == (value & care)

    remaining = set(minterms)
    chosen: list[tuple[int, int]] = []
    # Essential primes: sole cover of some minterm.
    for m in sorted(remaining):
        coverers = [p for p in primes if covers(p, m)]
        if len(coverers) == 1 and coverers[0] not in chosen:
            chosen.append(coverers[0])
    for imp in chosen:
        remaining -= {m for m in remaining if covers(imp, m)}
    # Greedy: most newly-covered minterms, ties by implicant order.
    while remaining:
        best = max(
            primes,
            key=lambda p: (len({m for m in remaining if covers(p, m)}), p),
        )
        gain = {m for m in remaining if covers(best, m)}
        if not gain:  # pragma: no cover - primes always cover all minterms
            raise KernelError("QM cover failed to make progress")
        chosen.append(best)
        remaining -= gain
    return chosen


def _implicant_term(
    imp: tuple[int, int], s: int, varmap: list[int]
) -> Term:
    value, care = imp
    return tuple(
        Literal(varmap[j], negated=not ((value >> j) & 1))
        for j in range(s)
        if (care >> j) & 1
    )


def _sop_form(g: int, s: int, varmap: list[int]) -> LoweredLUT:
    minterms = [r for r in range(1 << s) if (g >> r) & 1]
    maxterms = [r for r in range(1 << s) if not ((g >> r) & 1)]
    if len(minterms) == 1:
        return LoweredLUT(
            kind=OP_AND, terms=(_implicant_term((minterms[0], (1 << s) - 1), s, varmap),)
        )
    if len(maxterms) == 1:
        # Single zero row: OR of literals (De Morgan of the lone maxterm).
        m = maxterms[0]
        sum_term = tuple(
            Literal(varmap[j], negated=bool((m >> j) & 1)) for j in range(s)
        )
        return LoweredLUT(kind=OP_OR, terms=(sum_term,))
    primes = _prime_implicants(minterms, s)
    cover = _cover(minterms, primes)
    terms = tuple(_implicant_term(imp, s, varmap) for imp in cover)
    if len(terms) == 1:
        term = terms[0]
        if len(term) == 1:  # pragma: no cover - support reduction catches this
            return LoweredLUT(kind=OP_LITERAL, literal=term[0])
        return LoweredLUT(kind=OP_AND, terms=terms)
    return LoweredLUT(kind=OP_SOP, terms=terms)


def eval_lowered(lowered: LoweredLUT, inputs: tuple[int, ...], mask: int) -> int:
    """Evaluate a lowered form on packed integer planes (test/verify path).

    ``inputs[k]`` carries one bit per sample; ``mask`` limits the result
    width.  This mirrors exactly what the vectorised executor does with
    ``uint64`` planes, so verifying against it certifies the execution
    semantics, not just the lowering.
    """

    def lit(literal: Literal) -> int:
        word = inputs[literal.var]
        return (~word & mask) if literal.negated else (word & mask)

    if lowered.kind == OP_CONST:
        return mask if lowered.value else 0
    if lowered.kind == OP_LITERAL:
        assert lowered.literal is not None
        return lit(lowered.literal)
    if lowered.kind == OP_XOR:
        acc = 0
        for var in lowered.vars:
            acc ^= inputs[var]
        if lowered.invert:
            acc = ~acc
        return acc & mask
    if lowered.kind == OP_AND:
        acc = mask
        for literal in lowered.terms[0]:
            acc &= lit(literal)
        return acc
    if lowered.kind == OP_OR:
        acc = 0
        for literal in lowered.terms[0]:
            acc |= lit(literal)
        return acc
    acc = 0
    for term in lowered.terms:
        t = mask
        for literal in term:
            t &= lit(literal)
        acc |= t
    return acc


def _verify(lowered: LoweredLUT, tt: int, arity: int) -> None:
    rows = 1 << arity
    mask = (1 << rows) - 1
    planes = tuple(
        sum(1 << r for r in range(rows) if (r >> k) & 1) for k in range(4)
    )
    got = eval_lowered(lowered, planes, mask)
    want = tt & mask
    if got != want:
        raise KernelError(
            f"lowering of tt={tt:#x} arity={arity} produced {got:#x}, "
            f"want {want:#x} ({lowered})"
        )


@lru_cache(maxsize=4096)
def lower_tt(arity: int, tt: int) -> LoweredLUT:
    """Lower truth table ``tt`` over ``arity`` fanins; verified exact.

    The result is memoised per ``(arity, tt)`` — netlists reuse a small
    vocabulary of gates, so almost every plan compile is pure lookups.
    """
    if not (1 <= arity <= 4):
        raise KernelError(f"LUT arity must be 1..4, got {arity}")
    rows = 1 << arity
    if not (0 <= tt < (1 << rows)):
        raise KernelError(f"truth table {tt:#x} out of range for arity {arity}")

    support = _support(tt, arity)
    if not support:
        lowered = LoweredLUT(kind=OP_CONST, value=tt & 1)
        _verify(lowered, tt, arity)
        return lowered
    g = _project(tt, arity, support)
    s = len(support)
    if s == 1:
        # g over one var is 0b10 (buffer) or 0b01 (inverter).
        lowered = LoweredLUT(
            kind=OP_LITERAL, literal=Literal(support[0], negated=(g == 0b01))
        )
        _verify(lowered, tt, arity)
        return lowered
    parity = _parity_form(g, s)
    if parity is not None:
        lowered = LoweredLUT(kind=OP_XOR, vars=tuple(support), invert=parity)
        _verify(lowered, tt, arity)
        return lowered
    lowered = _sop_form(g, s, support)
    _verify(lowered, tt, arity)
    return lowered
