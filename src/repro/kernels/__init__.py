"""Bit-sliced kernel compiler for the LUT-DAG hot path.

This package turns a :class:`~repro.netlist.core.CompiledNetlist` into a
cached :class:`~repro.kernels.plan.ExecutionPlan`: every ≤4-input LUT
truth table is lowered once to a minimal boolean expression
(:mod:`~repro.kernels.lower`), node values are packed 64 samples per
``uint64`` word, and evaluation becomes a short sequence of whole-array
bitwise operations (:mod:`~repro.kernels.execute`).

It is the library's only netlist evaluator: :meth:`CompiledNetlist.evaluate`
and :func:`repro.timing.simulator.simulate_transitions` run on it.  The
test suite proves it bit-identical to a per-sample truth-table
interpreter, its oracle (``tests/kernels/oracle.py``).  See
docs/performance.md, "The kernel compiler".
"""

from .execute import evaluate_packed, pack_bits, stream_values, unpack_plane
from .lower import LoweredLUT, lower_tt
from .plan import (
    ExecutionPlan,
    clear_plan_cache,
    netlist_fingerprint,
    plan_cache_size,
    plan_for,
)

__all__ = [
    "ExecutionPlan",
    "LoweredLUT",
    "clear_plan_cache",
    "evaluate_packed",
    "lower_tt",
    "netlist_fingerprint",
    "pack_bits",
    "plan_cache_size",
    "plan_for",
    "stream_values",
    "unpack_plane",
]
