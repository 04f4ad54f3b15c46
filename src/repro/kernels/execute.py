"""Bit-sliced plan execution: 64 stimuli per uint64 word.

The packed value representation is a ``(n_nodes, W)`` uint64 plane with
``W = ceil(batch / 64)``: bit ``b`` of word ``w`` in row ``nid`` is node
``nid``'s value on sample ``64*w + b``.  One whole-array AND/OR/XOR over
a row group therefore evaluates 64 samples for every node in the group
at once, where a per-sample evaluator would gather each sample's
truth-table row with ``take_along_axis``.

Packing uses ``np.packbits``/``np.unpackbits`` with
``bitorder="little"`` through a ``uint8`` view of the word plane.  All
word-level operations are purely bitwise (never arithmetic), so the
byte order inside each word is irrelevant: unpacking applies the exact
inverse permutation of packing on any platform.

Entry points
------------
* :func:`evaluate_packed` — drop-in core of
  :meth:`CompiledNetlist.evaluate`.
* :func:`stream_values` — full node-value plane for the transition
  simulator (which also needs intermediate nodes, not just outputs).

All user-facing validation (unknown bus, bad shape, missing buses)
raises :class:`~repro.errors.NetlistError`.  The test suite proves
every entry point bit-identical to a per-sample truth-table
interpreter, its oracle (``tests/kernels/oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import NetlistError
from ..netlist.core import CompiledNetlist, EvalScratch
from .plan import ExecutionPlan, OpGroup, plan_for

__all__ = [
    "evaluate_packed",
    "pack_bits",
    "stream_values",
    "unpack_plane",
]

WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack ``(batch, width)`` uint8 bits into a ``(width, W)`` uint64 plane."""
    b = np.ascontiguousarray(bits, dtype=np.uint8)
    batch, width = b.shape
    n_words = (batch + WORD_BITS - 1) // WORD_BITS
    packed = np.packbits(b.T, axis=1, bitorder="little")  # (width, ceil(batch/8))
    buf = np.zeros((width, n_words * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return buf.view(np.uint64)


def unpack_plane(words: np.ndarray, batch: int) -> np.ndarray:
    """Unpack a ``(rows, W)`` uint64 plane into ``(rows, batch)`` uint8 bits."""
    u8 = np.ascontiguousarray(words).view(np.uint8)
    if batch == 0:
        return np.zeros((words.shape[0], 0), dtype=np.uint8)
    return np.unpackbits(u8, axis=1, bitorder="little", count=batch)


def _run_group(group: OpGroup, vals: np.ndarray) -> None:
    if group.kind == "const":
        vals[group.out_ids] = _ALL_ONES if group.value else np.uint64(0)
        return
    if group.kind == "xor":
        acc = vals[group.var_srcs[0]]  # fancy index: a fresh buffer
        for srcs in group.var_srcs[1:]:
            acc ^= vals[srcs]
        if group.invert:
            np.invert(acc, out=acc)
        vals[group.out_ids] = acc
        return
    # Sum of products (also literals / single AND / single OR).
    total: np.ndarray | None = None
    for term in group.terms:
        src0, neg0 = term[0]
        t = vals[src0]  # fancy index: a fresh buffer
        if neg0:
            np.invert(t, out=t)
        for srcs, negated in term[1:]:
            lit = vals[srcs]
            if negated:
                np.invert(lit, out=lit)
            t &= lit
        if total is None:
            total = t
        else:
            total |= t
    assert total is not None  # groups always hold >= 1 term
    vals[group.out_ids] = total


def _run_plan(plan: ExecutionPlan, vals: np.ndarray) -> None:
    for level in plan.levels:
        for group in level:
            _run_group(group, vals)


def _packed_plane(
    cn: CompiledNetlist,
    plan: ExecutionPlan,
    inputs: dict[str, np.ndarray],
    scratch: EvalScratch | None,
) -> tuple[np.ndarray, int]:
    """Validate + bind + execute; returns the word plane and batch size."""
    if not inputs:
        raise NetlistError(f"missing input buses: {sorted(cn.input_buses)}")
    first = next(iter(inputs.values()))
    batch = int(np.asarray(first).shape[0])
    n_words = (batch + WORD_BITS - 1) // WORD_BITS
    if scratch is not None:
        vals = scratch.array("kernel.vals", (cn.n_nodes, n_words), np.uint64)
        vals.fill(0)
    else:
        vals = np.zeros((cn.n_nodes, n_words), dtype=np.uint64)
    vals[plan.const_one_ids] = _ALL_ONES
    for name, bits in inputs.items():
        if name not in cn.input_buses:
            raise NetlistError(f"unknown input bus {name!r}")
        ids = cn.input_buses[name]
        b = np.asarray(bits, dtype=np.uint8)
        if b.ndim != 2 or b.shape[1] != ids.shape[0]:
            raise NetlistError(
                f"input {name!r}: expected shape (batch, {ids.shape[0]}), got {b.shape}"
            )
        if b.shape[0] != batch:
            raise NetlistError(
                f"input {name!r}: batch {b.shape[0]} disagrees with {batch}"
            )
        vals[ids] = pack_bits(b)
    missing = set(cn.input_buses) - set(inputs)
    if missing:
        raise NetlistError(f"missing input buses: {sorted(missing)}")
    _run_plan(plan, vals)
    return vals, batch


def evaluate_packed(
    cn: CompiledNetlist,
    inputs: dict[str, np.ndarray],
    scratch: EvalScratch | None = None,
) -> dict[str, np.ndarray]:
    """Functional evaluation via the bit-sliced plan.

    The body of :meth:`CompiledNetlist.evaluate`, which documents the
    contract.
    """
    plan = plan_for(cn)
    vals, batch = _packed_plane(cn, plan, inputs, scratch)
    out: dict[str, np.ndarray] = {}
    for name, ids in cn.output_buses.items():
        bits = unpack_plane(vals[ids], batch)  # (width, batch)
        if scratch is None:
            out[name] = np.ascontiguousarray(bits.T)
        else:
            buf = scratch.array(
                f"kernel.out.{name}", (batch, ids.shape[0]), np.uint8
            )
            np.copyto(buf, bits.T)
            out[name] = buf
    return out


def stream_values(
    cn: CompiledNetlist,
    inputs: dict[str, np.ndarray],
    scratch: EvalScratch | None = None,
) -> np.ndarray:
    """Full ``(n_nodes, N)`` uint8 value plane for a stimulus stream.

    The transition simulator consumes every node's values (to form the
    ``changed`` masks), so this unpacks the whole word plane rather than
    just the output rows.
    """
    plan = plan_for(cn)
    vals, batch = _packed_plane(cn, plan, inputs, scratch)
    return unpack_plane(vals, batch)
