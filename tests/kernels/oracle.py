"""The interpreted netlist evaluator: the test suite's golden reference.

Every LUT is resolved per sample by a gather into its 16-row truth
table, level by level.  This is the evaluator the library ran before the
bit-sliced kernel of :mod:`repro.kernels` replaced it, kept here so the
kernel can be proven bit-identical to it.  The settle loop of
:func:`simulate_transitions` performs the library simulator's float32
operations on changed node-transitions in the same order; it re-derives
each level's ``arity > k`` masks and fanin columns per call where the
library reads them from the netlist's timing layout, and it masks unchanged
fanins where the library carries them at -inf.

:func:`evaluate` and :func:`simulate_transitions` take the same
arguments as :meth:`CompiledNetlist.evaluate` and
:func:`repro.timing.simulator.simulate_transitions` (``scratch`` is
accepted and ignored), so a test can substitute them for the library's
own entry points and replay a whole sweep through the reference path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NetlistError, TimingError
from repro.netlist.core import _KIND_CONST, CompiledNetlist
from repro.timing.simulator import TransitionTimingResult


def initial_values(cn: CompiledNetlist, batch: int) -> np.ndarray:
    """Node-value array of shape ``(n_nodes, batch)`` with constants set."""
    vals = np.zeros((cn.n_nodes, batch), dtype=np.uint8)
    const_mask = cn.kinds == _KIND_CONST
    vals[const_mask] = cn.const_values[const_mask, None]
    return vals


def bind_inputs(
    cn: CompiledNetlist, values: np.ndarray, inputs: dict[str, np.ndarray]
) -> None:
    """Write input-bus bit arrays into a node-value array in place.

    ``inputs[name]`` must be ``(batch, width)`` uint8, LSB first.
    """
    for name, bits in inputs.items():
        if name not in cn.input_buses:
            raise NetlistError(f"unknown input bus {name!r}")
        ids = cn.input_buses[name]
        b = np.asarray(bits, dtype=np.uint8)
        if b.ndim != 2 or b.shape[1] != ids.shape[0]:
            raise NetlistError(
                f"input {name!r}: expected shape (batch, {ids.shape[0]}), got {b.shape}"
            )
        values[ids] = b.T
    missing = set(cn.input_buses) - set(inputs)
    if missing:
        raise NetlistError(f"missing input buses: {sorted(missing)}")


def stream_values(cn: CompiledNetlist, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Every node's value on every sample, ``(n_nodes, batch)`` uint8."""
    first = next(iter(inputs.values()))
    batch = np.asarray(first).shape[0]
    values = initial_values(cn, batch)
    bind_inputs(cn, values, inputs)
    fidx = cn.fanin_idx
    for ids in cn.level_groups:
        idx = values[fidx[ids, 0]].astype(np.intp)
        idx |= values[fidx[ids, 1]].astype(np.intp) << 1
        idx |= values[fidx[ids, 2]].astype(np.intp) << 2
        idx |= values[fidx[ids, 3]].astype(np.intp) << 3
        values[ids] = np.take_along_axis(cn.tt_bits[ids], idx, axis=1)
    return values


def evaluate(
    cn: CompiledNetlist, inputs: dict[str, np.ndarray], scratch: object = None
) -> dict[str, np.ndarray]:
    """Output bus name -> ``(batch, width)`` uint8 bits."""
    values = stream_values(cn, inputs)
    return {name: values[ids].T.copy() for name, ids in cn.output_buses.items()}


def simulate_transitions(
    netlist: CompiledNetlist,
    inputs: dict[str, np.ndarray],
    node_delay: np.ndarray,
    edge_delay: np.ndarray,
    scratch: object = None,
) -> TransitionTimingResult:
    """Values and float32 settle times of a stimulus stream."""
    values = stream_values(netlist, inputs)
    n = netlist.n_nodes
    n_tr = values.shape[1] - 1
    fidx = netlist.fanin_idx
    arity = netlist.arity
    changed = values[:, 1:] != values[:, :-1]  # (n, n_tr) bool
    settle = np.zeros((n, n_tr), dtype=np.float32)

    # Inputs/consts: settle 0 (input registers switch at t=0; the change
    # itself is accounted for by `changed`).
    for ids in netlist.level_groups:
        a = arity[ids]
        best = np.full((ids.shape[0], n_tr), -np.inf, dtype=np.float32)
        for k in range(4):
            mask_k = a > k
            if not mask_k.any():
                break
            src = fidx[ids, k]
            cand = settle[src] + edge_delay[ids, k, None].astype(np.float32)
            cand = np.where(changed[src], cand, -np.inf)
            best[mask_k] = np.maximum(best[mask_k], cand[mask_k])
        node_settle = node_delay[ids, None].astype(np.float32) + best
        # Unchanged nodes settle at 0; changed nodes take the path time.
        settle[ids] = np.where(changed[ids], node_settle, 0.0)
        # A changed node must have at least one changed fanin; if the
        # best is still -inf the netlist values are inconsistent.
        bad = changed[ids] & ~np.isfinite(node_settle)
        if bad.any():
            raise TimingError("changed node with no changed fanin (internal error)")

    return TransitionTimingResult(netlist=netlist, values=values, settle=settle)
