"""End-to-end mini synthesis flow.

``SynthesisFlow.run`` takes a netlist and a device and produces a
:class:`PlacedDesign`: the placed netlist annotated with the *actual*
per-node/per-edge delays of that die (used by the timing simulator and by
device-true STA) together with the tool's conservative reports.

This is the single entry point the characterisation harness and the
projection-datapath builder use to get designs "onto the device".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import check_netlist
from ..errors import PlacementError
from ..obs import runtime as obs
from ..fabric.device import FPGADevice
from ..netlist.core import CompiledNetlist, Netlist
from ..timing.sta import StaticTimingResult, static_timing
from .area_report import AreaReport, area_report
from .placer import Placement, place_netlist
from .timing_report import ToolTimingReport, tool_timing_report

__all__ = ["PlacedDesign", "SynthesisFlow"]


@dataclass(frozen=True)
class PlacedDesign:
    """A netlist placed and routed on a specific device.

    Attributes
    ----------
    node_delay:
        Actual per-node LUT delays on this die (ns), shape ``(n,)``.
    edge_delay:
        Actual per-fanin routing delays (ns), shape ``(n, 4)``.
    tool_report:
        The conservative vendor report (fA of Fig. 1).
    area:
        The synthesis-run area report.
    """

    netlist: CompiledNetlist
    device: FPGADevice
    placement: Placement
    node_delay: np.ndarray
    edge_delay: np.ndarray
    tool_report: ToolTimingReport
    area: AreaReport

    def device_sta(self) -> StaticTimingResult:
        """Device-true STA: the actual error-free bound of this placement.

        Corresponds to the paper's data-path Fmax (fB) as a worst-case-
        over-data bound.
        """
        return static_timing(
            self.netlist,
            self.node_delay,
            self.edge_delay,
            setup_ns=self.device.family.timing.register_setup_ns,
        )

    @property
    def setup_ns(self) -> float:
        return self.device.family.timing.register_setup_ns


class SynthesisFlow:
    """Synthesise (place + annotate + report) netlists onto a device."""

    def __init__(self, device: FPGADevice) -> None:
        self.device = device

    def run(
        self,
        netlist: Netlist | CompiledNetlist,
        anchor: tuple[int, int] = (0, 0),
        seed: int = 0,
        utilization: float = 0.55,
        lint: bool = True,
    ) -> PlacedDesign:
        """Place ``netlist`` at ``anchor`` and annotate actual delays.

        Parameters
        ----------
        anchor:
            Placement-region corner; the characterisation harness sweeps
            this to probe different parts of the die.
        seed:
            Synthesis-run seed (placement layout, routing noise, reported
            area scatter all derive from it).
        lint:
            Run the static-analysis gate before placement, raising
            :class:`~repro.errors.LintError` on error-severity findings
            (dead logic, malformed output buses, ...) and surfacing the
            rest as :class:`~repro.analysis.LintWarning` (the Fig. 2 flow
            runs it between "design entry" and placement).  Callers that
            place one netlist many times lint it once and pass ``False``.
        """
        obs.counter_add("synthesis.runs")
        with obs.span(
            "synthesis.run", anchor=f"{anchor[0]},{anchor[1]}", seed=seed
        ) as span:
            if lint:
                check_netlist(netlist, context="synthesis flow")
            compiled = netlist.compile() if isinstance(netlist, Netlist) else netlist
            span.set(nodes=compiled.n_nodes, linted=bool(lint))
            placement = place_netlist(
                compiled, self.device, anchor=anchor, seed=seed, utilization=utilization
            )

            lut_mask = compiled.lut_mask
            node_delay = np.zeros(compiled.n_nodes)
            node_delay[lut_mask] = self.device.lut_delay_at(
                placement.xs[lut_mask], placement.ys[lut_mask]
            )

            dist = placement.manhattan_edge_distances()
            fanout = placement.fanout_counts()
            fidx = compiled.fanin_idx
            routing_rng = self.device.routing_rng(seed)
            edge_delay = self.device.family.routing.routed_delay(
                dist, fanout[fidx], routing_rng
            )
            # Condition scaling applies to interconnect as well as logic.
            edge_delay = edge_delay * self.device.conditions.delay_scale()
            edge_delay = np.where(lut_mask[:, None], edge_delay, 0.0)

            return PlacedDesign(
                netlist=compiled,
                device=self.device,
                placement=placement,
                node_delay=node_delay,
                edge_delay=edge_delay,
                tool_report=tool_timing_report(placement),
                area=area_report(compiled, seed=seed),
            )

    def available_anchors(
        self,
        netlist: Netlist | CompiledNetlist,
        n_locations: int,
        utilization: float = 0.55,
    ) -> list[tuple[int, int]]:
        """Evenly spaced anchors where ``netlist`` fits, for location sweeps.

        Raises
        ------
        PlacementError
            If not even one location fits.
        """
        import math

        compiled = netlist.compile() if isinstance(netlist, Netlist) else netlist
        side = max(2, math.ceil(math.sqrt(compiled.n_nodes / utilization)))
        max_x = self.device.cols - side
        max_y = self.device.rows - side
        if max_x < 0 or max_y < 0:
            raise PlacementError("design does not fit the device at all")
        if n_locations < 1:
            raise PlacementError("n_locations must be >= 1")
        per_axis = max(1, int(math.ceil(math.sqrt(n_locations))))
        xs = np.linspace(0, max_x, per_axis, dtype=int)
        ys = np.linspace(0, max_y, per_axis, dtype=int)
        anchors = [(int(x), int(y)) for y in ys for x in xs]
        return anchors[:n_locations]
