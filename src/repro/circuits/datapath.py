"""The linear-projection datapath on the fabric.

Architecture (paper Sec. V: one MAC per output dimension, coefficients of
a possibly different word-length per column):

* input samples stream in one component ``x_p`` per cycle;
* K MAC lanes run in parallel, lane ``k`` multiplying the current ``x_p``
  magnitude by the magnitude of coefficient ``lambda_pk``;
* the generic multiplier inside each lane is the timing-critical,
  over-clocked component; the accumulator stage sits behind a pipeline
  register on the fast dedicated carry chain and never limits the clock
  ("the generic multipliers ... are the arithmetic operators with the most
  critical paths in the data path").

Each lane's multiplier is synthesised and placed separately, so the
actual-domain behaviour inherits placement-and-routing variation per lane.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from ..config import mhz_to_period_ns
from ..core.design import LinearProjectionDesign
from ..errors import DesignError, TimingError
from ..fabric.device import FPGADevice
from ..netlist.core import bits_from_ints, ints_from_bits
from ..parallel.cache import PlacedDesignCache, get_default_cache, multiplier_netlist
from ..synthesis.flow import PlacedDesign
from ..timing.capture import capture_stream
from ..timing.simulator import simulate_transitions
from ..timing.sta import arrival_times

__all__ = ["ProjectionDatapath", "LaneRun"]


@dataclass(frozen=True)
class LaneRun:
    """Captured multiplier outputs of one MAC lane over a test stream."""

    lane: int
    captured_products: np.ndarray  # (n_mults,) ints
    exact_products: np.ndarray  # (n_mults,) ints

    @property
    def error_rate(self) -> float:
        if self.captured_products.size == 0:
            return 0.0
        return float((self.captured_products != self.exact_products).mean())


class ProjectionDatapath:
    """A design's K multiplier lanes placed on a device.

    Parameters
    ----------
    design:
        The linear-projection design to implement.
    device:
        The die to place on.
    anchor:
        Bottom-left corner of the datapath region; lanes tile rightwards.
    seed:
        Synthesis seed for the lanes.
    cache:
        Placed-design cache; lanes sharing a geometry/anchor/seed reuse
        the placement instead of re-running synthesis.  ``None`` uses
        the process-wide default.
    """

    def __init__(
        self,
        design: LinearProjectionDesign,
        device: FPGADevice,
        anchor: tuple[int, int] = (0, 0),
        seed: int = 0,
        cache: PlacedDesignCache | None = None,
    ) -> None:
        self.design = design
        self.device = device
        self.anchor = anchor
        self.seed = seed
        if cache is None:
            cache = get_default_cache()
        self.lanes: list[PlacedDesign] = []
        x, y = anchor
        row_height = 0
        for k, wl in enumerate(design.wordlengths):
            netlist = multiplier_netlist(design.w_data, wl)

            side = max(2, math.ceil(math.sqrt(netlist.n_nodes / 0.55)))
            if x + side > device.cols:  # wrap to the next lane row
                x = anchor[0]
                y += row_height + 2
                row_height = 0
            if y + side > device.rows:
                raise DesignError(
                    "datapath lanes do not fit the device at this anchor"
                )
            placed = cache.get_or_place(
                device, design.w_data, wl, (x, y), seed + k
            )
            self.lanes.append(placed)
            x += placed.placement.region[0] + 2
            row_height = max(row_height, placed.placement.region[1])

    # ------------------------------------------------------------------
    @property
    def total_area_le(self) -> int:
        """Synthesis-reported area of all lanes (the 'actual area')."""
        return sum(lane.area.logic_elements for lane in self.lanes)

    def tool_fmax_mhz(self) -> float:
        """The conservative tool Fmax of the slowest lane."""
        return min(lane.tool_report.fmax_mhz for lane in self.lanes)

    def device_fmax_mhz(self) -> float:
        """Device-true STA Fmax of the slowest lane (error-free bound)."""
        return min(lane.device_sta().fmax_mhz for lane in self.lanes)

    def lane_slack_ns(self, lane: int, freq_mhz: float) -> float:
        """Worst-case slack of one lane's product bus at ``freq_mhz``.

        The earliest capture window :func:`capture_stream` can draw at
        the PLL-achieved clock (its float64 operations at the largest
        jitter, ``bound_ns``) minus the lane's float32 worst-case arrival
        over the product bus, which bounds every settle time the simulator
        can produce (see :func:`arrival_times`).  Non-negative slack
        proves that no product bit can be late, for any stimulus and any
        jitter draw.
        """
        placed = self.lanes[lane]
        pll = self.device.family.pll
        period = mhz_to_period_ns(pll.synthesize(freq_mhz).achieved_mhz)
        earliest = (period - pll.jitter.bound_ns) - placed.setup_ns
        bound = arrival_times(
            placed.netlist, placed.node_delay, placed.edge_delay, dtype=np.float32
        )
        return earliest - float(bound[placed.netlist.output_buses["p"]].max())

    def run_lane(
        self,
        lane: int,
        x_magnitudes: np.ndarray,
        freq_mhz: float,
        rng: np.random.Generator,
    ) -> LaneRun:
        """Run one lane's multiplier over the full test stream.

        When :meth:`lane_slack_ns` proves the lane on time, the products
        come from functional evaluation and settle propagation is
        skipped; the result is the one the simulation would capture.

        Parameters
        ----------
        x_magnitudes:
            Input-data magnitudes, shape ``(P, N)``; the lane consumes
            them column-major (p fastest), exactly the streaming order of
            the hardware.
        freq_mhz:
            Over-clocked operating frequency.
        rng:
            Jitter randomness.
        """
        placed = self.lanes[lane]
        wl = self.design.wordlengths[lane]
        p, n = x_magnitudes.shape
        if p != self.design.p:
            raise DesignError(
                f"x magnitudes have P={p}, design has P={self.design.p}"
            )
        a_stream = x_magnitudes.T.reshape(-1)  # sample-major, p fastest
        b_stream = np.tile(self.design.magnitudes[:, lane], n)
        # Pipeline priming word so every real multiplication has a
        # predecessor transition.
        a_stream = np.concatenate([[0], a_stream])
        b_stream = np.concatenate([[0], b_stream])
        inputs = {
            "a": bits_from_ints(a_stream, self.design.w_data),
            "b": bits_from_ints(b_stream, wl),
        }
        jitter = self.device.family.pll.jitter
        if self.lane_slack_ns(lane, freq_mhz) >= 0.0:
            # No bit can be late, so the captured word is the ideal word.
            # The jitter is still drawn, leaving ``rng`` where capture
            # would have left it.
            if a_stream.size < 2:
                raise TimingError(
                    "need at least 2 stimulus vectors to form a transition"
                )
            jitter.sample(a_stream.size - 1, rng)
            products = ints_from_bits(placed.netlist.evaluate(inputs)["p"][1:])
            return LaneRun(
                lane=lane, captured_products=products, exact_products=products.copy()
            )
        timing = simulate_transitions(
            placed.netlist, inputs, placed.node_delay, placed.edge_delay
        )
        clock = self.device.family.pll.synthesize(freq_mhz)
        cap = capture_stream(
            timing,
            "p",
            clock.achieved_mhz,
            setup_ns=placed.setup_ns,
            jitter=jitter,
            rng=rng,
        )
        return LaneRun(
            lane=lane,
            captured_products=cap.captured_ints(),
            exact_products=cap.ideal_ints(),
        )
