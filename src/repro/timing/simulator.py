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

# The bit pattern of float32 -inf.
_NEG_INF_BITS = np.float32(-np.inf).view(np.uint32)


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
    slots from the netlist's timing layout
    (:class:`~repro.netlist.core.TimingLevel`).

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
        internal buffers across repeated same-shape calls (a call-local
        one when omitted).  The returned ``values``/``settle`` arrays are
        always freshly owned — only temporaries are pooled — so results
        stay valid across calls.

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

    if scratch is None:
        scratch = EvalScratch()
    values = stream_values(netlist, inputs, scratch=scratch)

    n_tr = stream_len - 1
    unchanged = scratch.array("timing.unchanged", (n, n_tr), np.bool_)
    np.equal(values[:, 1:], values[:, :-1], out=unchanged)
    n_unchanged = np.count_nonzero(unchanged)
    # The settle plane starts as a pattern: -inf where a node keeps its
    # value, +0.0 where it changes.  An unchanged fanin then drops out of
    # every max without a mask (max(-inf, x) = x, -inf + d = -inf), and
    # adding a level's pattern rows to its computed times keeps a changed
    # node's time (x + 0.0 = x: delays are non-negative, so no -0.0 arises)
    # and sends an unchanged node's to -inf.
    settle = np.empty((n, n_tr), dtype=np.float32)
    pattern = settle.view(np.uint32)
    pattern[...] = unchanged
    pattern *= _NEG_INF_BITS

    widest = max((lv.ids.shape[0] for lv in netlist.timing_levels), default=0)
    best_buf = scratch.array("timing.best", (widest, n_tr), np.float32)
    rows_buf = scratch.array("timing.rows", (widest, n_tr), np.float32)
    for level in netlist.timing_levels:
        ids = level.ids
        best = best_buf[: ids.shape[0]]
        # Slot 0 covers every node of the level and lands in ``best``
        # directly (max(-inf, x) = x); slot k's nodes are a prefix.  The
        # layout's indices are in range, and mode="clip" lets np.take write
        # straight into ``out``, where mode="raise" would buffer.
        for k, srcs in enumerate(level.srcs):
            m = srcs.shape[0]
            cand = best if k == 0 else rows_buf[:m]
            np.take(settle, srcs, axis=0, out=cand, mode="clip")
            cand += edge_delay[ids[:m], k, None].astype(np.float32)
            if k:
                np.maximum(best[:m], cand, out=best[:m])
        best += node_delay[ids, None].astype(np.float32)
        best += np.take(settle, ids, axis=0, out=rows_buf[: ids.shape[0]], mode="clip")
        settle[ids] = best
    # A changed node with no changed fanin would also sit at -inf now.
    np.equal(settle, -np.inf, out=unchanged)
    if np.count_nonzero(unchanged) != n_unchanged:
        raise TimingError("changed node with no changed fanin (internal error)")
    np.maximum(settle, 0, out=settle)  # unchanged nodes settle at t = 0

    return TransitionTimingResult(netlist=netlist, values=values, settle=settle)
