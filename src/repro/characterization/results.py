"""Characterisation result containers and persistence.

The central product is the grid of error statistics per
``(location, multiplicand, frequency)`` — the raw material for the error
model E(m, f) of paper Fig. 5 and the prior of Sec. V-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..errors import CharacterizationError

if TYPE_CHECKING:
    from ..parallel.retry import SweepOutcome

__all__ = ["CharacterizationResult"]


@dataclass(frozen=True)
class CharacterizationResult:
    """Full characterisation sweep of one multiplier geometry on one die.

    Attributes
    ----------
    w_data, w_coeff:
        Multiplier geometry (streamed operand x fixed operand widths).
    device_serial:
        Which die the data belongs to — the data is *device specific*.
    freqs_mhz:
        Achieved clock frequencies, shape ``(F,)``.
    multiplicands:
        Fixed-operand values characterised, shape ``(M,)``.
    locations:
        Placement anchors characterised, length ``L``.
    variance, mean, error_rate:
        Statistic grids of shape ``(L, M, F)``.  In a *degraded* sweep
        (see ``outcome``) the cells of quarantined shards are NaN.
    n_samples:
        Capture cycles contributing to each cell.
    outcome:
        The :class:`~repro.parallel.retry.SweepOutcome` of the sweep that
        produced the grids — per-shard attempt counts, retries and
        quarantine dispositions.  Execution provenance, not data: it is
        excluded from equality and from the ``.npz`` archive (the
        workspace persists it as a JSON sidecar instead), and is ``None``
        on results loaded from disk.
    """

    w_data: int
    w_coeff: int
    device_serial: int
    freqs_mhz: np.ndarray
    multiplicands: np.ndarray
    locations: tuple[tuple[int, int], ...]
    variance: np.ndarray
    mean: np.ndarray
    error_rate: np.ndarray
    n_samples: int
    outcome: "SweepOutcome | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        l, m, f = len(self.locations), len(self.multiplicands), len(self.freqs_mhz)
        for name in ("variance", "mean", "error_rate"):
            arr = getattr(self, name)
            if arr.shape != (l, m, f):
                raise CharacterizationError(
                    f"{name} grid shape {arr.shape} != ({l}, {m}, {f})"
                )

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Were any shards quarantined (NaN cells in the grids)?

        Works both on fresh results (via ``outcome``) and on archives
        loaded from disk, where the NaN cells themselves are the record.
        """
        if self.outcome is not None and self.outcome.status != "complete":
            return True
        return not bool(np.all(np.isfinite(self.variance)))

    # ------------------------------------------------------------------
    def location_index(self, location: tuple[int, int]) -> int:
        try:
            return self.locations.index(tuple(location))
        except ValueError:
            raise CharacterizationError(
                f"location {location} not characterised; have {self.locations}"
            ) from None

    def variance_grid(self, location: tuple[int, int] | None = None) -> np.ndarray:
        """E(m, f) variance grid, shape ``(M, F)``.

        ``location=None`` averages over locations (a whole-device model);
        otherwise the grid for the given anchor is returned (a placement-
        specific model).
        """
        if location is None:
            return self.variance.mean(axis=0)
        return self.variance[self.location_index(location)]

    def mean_grid(self, location: tuple[int, int] | None = None) -> np.ndarray:
        if location is None:
            return self.mean.mean(axis=0)
        return self.mean[self.location_index(location)]

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist to an ``.npz`` archive."""
        np.savez_compressed(
            Path(path),
            w_data=self.w_data,
            w_coeff=self.w_coeff,
            device_serial=self.device_serial,
            freqs_mhz=self.freqs_mhz,
            multiplicands=self.multiplicands,
            locations=np.asarray(self.locations, dtype=np.int64),
            variance=self.variance,
            mean=self.mean,
            error_rate=self.error_rate,
            n_samples=self.n_samples,
        )

    @classmethod
    def load(cls, path: str | Path) -> "CharacterizationResult":
        """Load a result saved with :meth:`save`."""
        p = Path(path)
        if not p.exists():
            raise CharacterizationError(f"no characterisation archive at {p}")
        with np.load(p) as z:
            return cls(
                w_data=int(z["w_data"]),
                w_coeff=int(z["w_coeff"]),
                device_serial=int(z["device_serial"]),
                freqs_mhz=z["freqs_mhz"],
                multiplicands=z["multiplicands"],
                locations=tuple(tuple(int(v) for v in row) for row in z["locations"]),
                variance=z["variance"],
                mean=z["mean"],
                error_rate=z["error_rate"],
                n_samples=int(z["n_samples"]),
            )
