"""Static timing analysis over a delay-annotated netlist.

Arrival-time recurrence (primary inputs launch at t=0 from ideal input
registers):

``arrival(n) = lut_delay(n) + max_k( arrival(fanin_k) + edge_delay(n, k) )``

The per-output critical delay plus the capture-register setup time bounds
the minimum error-free clock period.  STA is a *worst-case-over-data*
bound: the dynamic simulator can pass faster clocks for benign stimulus,
never slower ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import period_ns_to_mhz
from ..errors import TimingError
from ..netlist.core import CompiledNetlist

__all__ = ["StaticTimingResult", "static_timing", "arrival_times"]


@dataclass(frozen=True)
class StaticTimingResult:
    """Result of a static timing analysis.

    Attributes
    ----------
    arrival:
        Per-node worst-case arrival times (ns), shape ``(n_nodes,)``.
    output_arrival:
        Mapping output bus -> per-bit arrival times (ns).
    critical_path_ns:
        Worst arrival over all output bits.
    setup_ns:
        Register setup time included in the period bound.
    """

    arrival: np.ndarray
    output_arrival: dict[str, np.ndarray]
    critical_path_ns: float
    setup_ns: float

    @property
    def min_period_ns(self) -> float:
        return self.critical_path_ns + self.setup_ns

    @property
    def fmax_mhz(self) -> float:
        """Maximum error-free clock frequency implied by this analysis."""
        return period_ns_to_mhz(self.min_period_ns)

    def output_fmax_mhz(self, bus: str) -> np.ndarray:
        """Per-bit Fmax of one output bus (MSbs are slowest by structure)."""
        arr = self.output_arrival[bus]
        return 1000.0 / (arr + self.setup_ns)


def arrival_times(
    netlist: CompiledNetlist,
    node_delay: np.ndarray,
    edge_delay: np.ndarray,
    edge_active: np.ndarray | None = None,
    node_static: np.ndarray | None = None,
    dtype: type[np.floating] = np.float64,
) -> np.ndarray:
    """Compute worst-case arrival times for every node.

    Parameters
    ----------
    netlist:
        Compiled netlist.
    node_delay:
        Per-node intrinsic (LUT) delay, shape ``(n_nodes,)``; zero for
        inputs and constants.
    edge_delay:
        Per-fanin-edge routing delay, shape ``(n_nodes, 4)``; entries
        beyond a node's arity are ignored.
    edge_active:
        Optional ``(n_nodes, 4)`` bool mask from dataflow analysis: an
        inactive fanin edge drives a provably-constant value and is
        excluded from the arrival max (false-path pruning).
    node_static:
        Optional ``(n_nodes,)`` bool mask: a static node's value provably
        never changes, so it settles at t=0 regardless of fanin timing
        (matching the transition simulator, where an unchanged node
        contributes no settle delay).  Supplying only ``node_static``
        without ``edge_active`` is allowed and is already sound.
    dtype:
        Arithmetic precision.  ``np.float32`` performs the float32
        operations of :func:`repro.timing.simulator.simulate_transitions`
        (a fanin's time plus ``edge_delay.astype(float32)``, the max, then
        plus ``node_delay.astype(float32)``) over every fanin, where the
        simulator takes only the changed ones.  Rounding is monotone, so
        with non-negative delays no settle time the simulator produces,
        for any stimulus and either kernel, exceeds that result.
    """
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


def static_timing(
    netlist: CompiledNetlist,
    node_delay: np.ndarray,
    edge_delay: np.ndarray,
    setup_ns: float = 0.0,
    edge_active: np.ndarray | None = None,
    node_static: np.ndarray | None = None,
) -> StaticTimingResult:
    """Run STA and collect per-output critical delays.

    ``edge_active`` / ``node_static`` enable sensitisation-aware pruning
    (see :func:`arrival_times`); omitted, this is the plain worst-case
    bound.
    """
    if setup_ns < 0:
        raise TimingError("setup time must be non-negative")
    arrival = arrival_times(
        netlist,
        node_delay,
        edge_delay,
        edge_active=edge_active,
        node_static=node_static,
    )
    out = {name: arrival[ids].copy() for name, ids in netlist.output_buses.items()}
    critical = max(float(a.max()) for a in out.values())
    return StaticTimingResult(
        arrival=arrival,
        output_arrival=out,
        critical_path_ns=critical,
        setup_ns=float(setup_ns),
    )
