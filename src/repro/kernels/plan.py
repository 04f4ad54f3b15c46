"""Netlist → execution-plan compiler with a content-hash memo cache.

An :class:`ExecutionPlan` is everything the packed executor needs that
can be computed once per netlist instead of once per evaluation:

* **Functional op groups** — within each topological level, LUT nodes
  are bucketed by their lowered boolean structure
  (:attr:`~repro.kernels.lower.LoweredLUT.group_key`), and each bucket's
  fanin columns are pre-gathered into index arrays.  Executing a bucket
  is then a handful of whole-array bitwise ops over ``(g, W)`` uint64
  planes — no per-sample gathers, no ``astype(np.intp)`` temporaries.

Timing reads no plan: its gathers are ``CompiledNetlist.timing_levels``.

Plans are memoised in a module-level cache keyed by a **content hash**
of the compiled arrays (:func:`netlist_fingerprint`), not by object
identity: :class:`~repro.netlist.core.CompiledNetlist` instances travel
through pickles to pool workers and lose identity on the way, while structurally identical netlists — every
shard of a sweep evaluates the same placed design — should share one
plan.  The cache is guarded by a lock and is append-only: a key is
computed from immutable arrays, so concurrent writers can only ever
install equal values (safe under the PR 6 sanitizer's shared-state
rules; see the ``_PLAN_CACHE`` allowance in the effect catalogue).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import cast

import numpy as np

from ..errors import KernelError
from ..netlist.core import _KIND_CONST, _KIND_LUT, CompiledNetlist
from .lower import OP_CONST, OP_LITERAL, OP_XOR, Term, lower_tt

__all__ = [
    "ExecutionPlan",
    "OpGroup",
    "clear_plan_cache",
    "netlist_fingerprint",
    "plan_cache_size",
    "plan_for",
]


@dataclass(frozen=True)
class OpGroup:
    """Same-level LUT nodes sharing one lowered boolean structure.

    Attributes
    ----------
    kind:
        ``"const"``, ``"xor"`` or ``"sop"`` (literals and single AND/OR
        terms are degenerate sums of products and run on the SOP path).
    out_ids:
        Node ids this group writes, ``(g,)`` intp.
    value:
        The constant for ``kind == "const"``.
    invert:
        For ``kind == "xor"``: complement the parity.
    var_srcs:
        For ``kind == "xor"``: one ``(g,)`` fanin-id array per xored
        variable.
    terms:
        For ``kind == "sop"``: per product term, a tuple of
        ``(src_ids, negated)`` literals with ``src_ids`` of shape
        ``(g,)``.
    """

    kind: str
    out_ids: np.ndarray
    value: int = 0
    invert: bool = False
    var_srcs: tuple[np.ndarray, ...] = ()
    terms: tuple[tuple[tuple[np.ndarray, bool], ...], ...] = ()


@dataclass(frozen=True)
class ExecutionPlan:
    """One netlist's compiled bit-sliced execution recipe."""

    fingerprint: str
    n_nodes: int
    const_zero_ids: np.ndarray  # _KIND_CONST nodes with value 0, (c0,) intp
    const_one_ids: np.ndarray  # _KIND_CONST nodes with value 1, (c1,) intp
    levels: tuple[tuple[OpGroup, ...], ...]

    @property
    def n_groups(self) -> int:
        """Total op groups across all levels (plan-size diagnostic)."""
        return sum(len(lv) for lv in self.levels)


def netlist_fingerprint(cn: CompiledNetlist) -> str:
    """Content hash of everything evaluation semantics depend on.

    Two netlists with equal fingerprints are evaluation-equivalent node
    for node (same kinds, fanins, truth tables, constants and buses), so
    they can share one :class:`ExecutionPlan`.  ``hashlib`` rather than
    built-in ``hash()``: the fingerprint must agree across pool workers
    regardless of ``PYTHONHASHSEED`` (rule DT009).
    """
    h = hashlib.sha256()
    for arr in (cn.kinds, cn.arity, cn.fanin_idx, cn.tt_bits, cn.const_values):
        h.update(np.ascontiguousarray(arr).tobytes())
    for role, buses in (("in", cn.input_buses), ("out", cn.output_buses)):
        for name, ids in buses.items():
            h.update(f"{role}:{name}:".encode())
            h.update(np.ascontiguousarray(ids).tobytes())
    return h.hexdigest()


def _node_lowered(cn: CompiledNetlist, nid: int) -> tuple[object, ...]:
    """Lower node ``nid``'s truth table; returns its structure key."""
    a = int(cn.arity[nid])
    rows = 1 << a
    tt = 0
    for r in range(rows):
        if cn.tt_bits[nid, r]:
            tt |= 1 << r
    return lower_tt(a, tt).group_key


def _build_group(
    cn: CompiledNetlist, key: tuple[object, ...], nids: list[int]
) -> OpGroup:
    out_ids = np.asarray(nids, dtype=np.intp)
    kind = cast(str, key[0])
    if kind == OP_CONST:
        return OpGroup(kind="const", out_ids=out_ids, value=cast(int, key[1]))
    fidx = cn.fanin_idx
    if kind == OP_LITERAL:
        var, negated = cast(int, key[1]), cast(bool, key[2])
        srcs = fidx[out_ids, var].astype(np.intp)
        return OpGroup(
            kind="sop", out_ids=out_ids, terms=(((srcs, negated),),)
        )
    if kind == OP_XOR:
        var_srcs = tuple(
            fidx[out_ids, var].astype(np.intp)
            for var in cast("tuple[int, ...]", key[1])
        )
        return OpGroup(
            kind="xor",
            out_ids=out_ids,
            invert=cast(bool, key[2]),
            var_srcs=var_srcs,
        )
    # AND / OR / SOP all share the generic sum-of-products executor: an
    # AND is one term, an OR is a sum of single-literal terms.
    if kind in ("and", "sop"):
        term_specs = cast("tuple[Term, ...]", key[1])
        terms = tuple(
            tuple(
                (fidx[out_ids, lit.var].astype(np.intp), lit.negated)
                for lit in term
            )
            for term in term_specs
        )
        return OpGroup(kind="sop", out_ids=out_ids, terms=terms)
    if kind == "or":
        sum_term = cast("tuple[Term, ...]", key[1])[0]
        terms = tuple(
            ((fidx[out_ids, lit.var].astype(np.intp), lit.negated),)
            for lit in sum_term
        )
        return OpGroup(kind="sop", out_ids=out_ids, terms=terms)
    raise KernelError(f"unknown lowered kind {kind!r}")  # pragma: no cover


def _compile_plan(cn: CompiledNetlist, fingerprint: str) -> ExecutionPlan:
    const_mask = cn.kinds == _KIND_CONST
    const_zero = np.nonzero(const_mask & (cn.const_values == 0))[0]
    const_one = np.nonzero(const_mask & (cn.const_values != 0))[0]

    levels: list[tuple[OpGroup, ...]] = []
    for ids in cn.level_groups:
        # Functional groups: bucket by lowered structure, preserving the
        # first-seen order within the level (dicts iterate in insertion
        # order, so the grouping is deterministic).
        buckets: dict[tuple[object, ...], list[int]] = {}
        for nid in ids.tolist():
            if cn.kinds[nid] != _KIND_LUT:  # pragma: no cover - levels>0 are LUTs
                raise KernelError(f"non-LUT node {nid} in a level group")
            buckets.setdefault(_node_lowered(cn, nid), []).append(nid)
        levels.append(
            tuple(_build_group(cn, key, nids) for key, nids in buckets.items())
        )

    return ExecutionPlan(
        fingerprint=fingerprint,
        n_nodes=cn.n_nodes,
        const_zero_ids=const_zero.astype(np.intp),
        const_one_ids=const_one.astype(np.intp),
        levels=tuple(levels),
    )


# Plan memo cache.  Append-only under the lock; keys are content hashes
# of immutable arrays, so racing writers can only install equal plans.
_PLAN_CACHE: dict[str, ExecutionPlan] = {}
_PLAN_CACHE_LOCK = threading.Lock()


def plan_for(cn: CompiledNetlist) -> ExecutionPlan:
    """The memoised :class:`ExecutionPlan` for ``cn`` (compiled on miss)."""
    fingerprint = netlist_fingerprint(cn)
    with _PLAN_CACHE_LOCK:
        plan = _PLAN_CACHE.get(fingerprint)
    if plan is not None:
        return plan
    plan = _compile_plan(cn, fingerprint)
    with _PLAN_CACHE_LOCK:
        return _PLAN_CACHE.setdefault(fingerprint, plan)


def plan_cache_size() -> int:
    """Number of distinct netlist fingerprints currently cached."""
    with _PLAN_CACHE_LOCK:
        return len(_PLAN_CACHE)


def clear_plan_cache() -> None:
    """Drop all memoised plans (tests and memory-pressure escapes)."""
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE.clear()
