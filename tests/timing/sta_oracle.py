"""The masked per-level STA loop: the test suite's reference for STA.

:func:`arrival_times` is the loop :func:`repro.timing.sta.arrival_times`
ran before it walked the netlist's timing layout.  Per level it
re-derives the ``arity > k`` masks and fanin columns of all four slots,
folds ``edge_active`` into each mask, replaces a non-finite best by the
negated node delay, and overwrites static nodes with 0 after the add.
The library now carries inactive edges at -inf and zeroes the nodes
with no active in-edge; the tests prove the two bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TimingError
from repro.netlist.core import CompiledNetlist


def arrival_times(
    netlist: CompiledNetlist,
    node_delay: np.ndarray,
    edge_delay: np.ndarray,
    edge_active: np.ndarray | None = None,
    node_static: np.ndarray | None = None,
    dtype: type[np.floating] = np.float64,
) -> np.ndarray:
    """Worst-case arrival times, with the library's arguments."""
    n = netlist.n_nodes
    if node_delay.shape != (n,):
        raise TimingError(f"node_delay shape {node_delay.shape} != ({n},)")
    if edge_delay.shape != (n, 4):
        raise TimingError(f"edge_delay shape {edge_delay.shape} != ({n}, 4)")
    if edge_active is not None and edge_active.shape != (n, 4):
        raise TimingError(f"edge_active shape {edge_active.shape} != ({n}, 4)")
    if node_static is not None and node_static.shape != (n,):
        raise TimingError(f"node_static shape {node_static.shape} != ({n},)")
    node_delay = np.asarray(node_delay, dtype=dtype)
    edge_delay = np.asarray(edge_delay, dtype=dtype)
    arrival = np.zeros(n, dtype=dtype)
    arity = netlist.arity
    fidx = netlist.fanin_idx
    for ids in netlist.level_groups:
        a = arity[ids]
        best = np.full(ids.shape[0], -np.inf, dtype=dtype)
        for k in range(4):
            mask = a > k
            if not mask.any():
                break
            if edge_active is not None:
                mask = mask & edge_active[ids, k]
            cand = arrival[fidx[ids, k]] + edge_delay[ids, k]
            best = np.where(mask, np.maximum(best, cand), best)
        # A node with no active in-edge cannot be toggled: it settles at
        # t=0 (its value is constant, so no transition ever launches).
        best = np.where(np.isfinite(best), best, -node_delay[ids])
        arrival[ids] = node_delay[ids] + best
        if node_static is not None:
            arrival[ids] = np.where(node_static[ids], 0.0, arrival[ids])
    return arrival
