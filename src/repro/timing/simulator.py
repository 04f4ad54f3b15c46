"""Vectorised two-vector transition-aware timing simulation.

For every consecutive pair of stimulus vectors the simulator computes, per
node, the time at which the node reaches its final (new) value:

* a node whose value does not change settles at t = 0;
* a changed node settles at ``lut_delay + max(settle(fanin) + edge_delay)``
  over the fanins whose values changed.

This is the classic transition-propagation abstraction of timing errors
(cf. the datapath error models of paper ref. [8]): it captures data
dependence (benign transitions settle early), structural dependence (MSbs
settle last), and placement dependence (delays come from the placed
design).  It deliberately ignores glitches on value-preserving nodes and
multi-cycle transient overlap; DESIGN.md records both approximations.

The whole computation is batched over the stimulus axis in NumPy — one
pass over netlist levels regardless of stream length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TimingError
from ..netlist.core import CompiledNetlist, EvalScratch

__all__ = ["TransitionTimingResult", "simulate_transitions"]


@dataclass(frozen=True)
class TransitionTimingResult:
    """Values and settle times for a stimulus stream.

    For a stream of ``N`` input vectors there are ``N - 1`` transitions.

    Attributes
    ----------
    values:
        Functional node values for all ``N`` vectors, ``(n_nodes, N)`` uint8.
    settle:
        Per-node settle time of each transition, ``(n_nodes, N - 1)``
        float32; entry ``[:, i]`` describes the transition from vector
        ``i`` to vector ``i + 1``.
    """

    netlist: CompiledNetlist
    values: np.ndarray
    settle: np.ndarray

    @property
    def n_transitions(self) -> int:
        return int(self.settle.shape[1])

    def output_values(self, bus: str) -> np.ndarray:
        """Functional values of an output bus, ``(N, width)`` uint8."""
        ids = self.netlist.output_buses[bus]
        return self.values[ids].T

    def output_settle(self, bus: str) -> np.ndarray:
        """Settle times of an output bus, ``(N - 1, width)`` float32."""
        ids = self.netlist.output_buses[bus]
        return self.settle[ids].T


def simulate_transitions(
    netlist: CompiledNetlist,
    inputs: dict[str, np.ndarray],
    node_delay: np.ndarray,
    edge_delay: np.ndarray,
    scratch: EvalScratch | None = None,
) -> TransitionTimingResult:
    """Simulate a stream of input vectors through a placed netlist.

    The functional value plane comes from the bit-sliced kernel, and
    the float32 settle propagation reads each level's populated fanin
    slots from the plan's precomputed gather indices
    (:class:`~repro.kernels.plan.TimingLevel`).

    Parameters
    ----------
    netlist:
        Compiled netlist.
    inputs:
        Mapping bus name -> ``(N, width)`` uint8 bit stream (LSB first).
        All buses must share the same stream length ``N >= 2``.
    node_delay, edge_delay:
        Placed delay annotations as for :func:`repro.timing.sta.static_timing`.
    scratch:
        Optional :class:`~repro.netlist.core.EvalScratch` reusing
        internal buffers across repeated same-shape calls.  The returned
        ``values``/``settle`` arrays are always freshly owned — only
        temporaries are pooled — so results stay valid across calls.

    Returns
    -------
    TransitionTimingResult
    """
    n = netlist.n_nodes
    if node_delay.shape != (n,) or edge_delay.shape != (n, 4):
        raise TimingError("delay annotation shapes do not match netlist")
    lengths = {np.asarray(v).shape[0] for v in inputs.values()}
    if len(lengths) != 1:
        raise TimingError(f"input streams disagree on length: {lengths}")
    stream_len = lengths.pop()
    if stream_len < 2:
        raise TimingError("need at least 2 stimulus vectors to form a transition")

    from ..kernels.execute import stream_values
    from ..kernels.plan import plan_for

    values = stream_values(netlist, inputs, scratch=scratch)
    plan = plan_for(netlist)

    n_tr = stream_len - 1
    if scratch is None:
        changed = np.empty((n, n_tr), dtype=np.bool_)
    else:
        changed = scratch.array("timing.changed", (n, n_tr), np.bool_)
    np.not_equal(values[:, 1:], values[:, :-1], out=changed)
    # Unchanged node-transitions settle at -inf while levels propagate, so
    # they drop out of every fanin max (max(-inf, x) = x, -inf + d = -inf)
    # without a mask; one final pass maps them to t = 0.
    settle = np.where(changed, np.float32(0.0), np.float32(-np.inf))

    for li, level in enumerate(plan.timing_levels):
        ids = level.ids
        if scratch is None:
            best = np.empty((ids.shape[0], n_tr), dtype=np.float32)
        else:
            best = scratch.array(
                f"timing.best.{li}", (int(ids.shape[0]), n_tr), np.float32
            )
        best.fill(-np.inf)
        for k, rows_k, ids_k, srcs_k in level.gathers:
            cand = settle[srcs_k] + edge_delay[ids_k, k, None].astype(np.float32)
            np.maximum(best[rows_k], cand, out=cand)
            best[rows_k] = cand
        node_settle = node_delay[ids, None].astype(np.float32) + best
        changed_ids = changed[ids]
        settle[ids] = np.where(changed_ids, node_settle, -np.inf)
        bad = changed_ids & ~np.isfinite(node_settle)
        if bad.any():
            raise TimingError("changed node with no changed fanin (internal error)")
    np.maximum(settle, 0, out=settle)

    return TransitionTimingResult(netlist=netlist, values=values, settle=settle)
