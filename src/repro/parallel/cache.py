"""Placed-design cache: stop re-synthesising geometry already placed.

Every placed multiplier in the flow — the characterisation circuit's DUT,
the projection datapath's MAC lanes, area-model sample runs — is fully
determined by ``(device identity, geometry, anchor, seed)``.  The cache
memoises :class:`~repro.synthesis.flow.PlacedDesign` instances on that
key, in memory for the current process; each pool worker builds its own.

The device identity includes the operating conditions: the same die at a
different temperature or Vdd has different delays and must not alias.

The build path is pure in the key, so a hit is bit-identical to a
rebuild and the cache's temperature never changes a number.  Nothing is
kept on disk: one placement costs a few milliseconds, less than loading
and checking a stored copy of it would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from ..analysis import check_netlist
from ..fabric.device import FPGADevice
from ..netlist.core import CompiledNetlist
from ..netlist.multipliers import unsigned_array_multiplier
from ..synthesis.flow import PlacedDesign, SynthesisFlow

__all__ = [
    "CacheStats",
    "PlacedDesignCache",
    "PlacedKey",
    "get_default_cache",
    "multiplier_netlist",
    "set_default_cache",
]


@lru_cache(maxsize=None)
def multiplier_netlist(w_data: int, w_coeff: int) -> CompiledNetlist:
    """Compiled (and linted) generic multiplier, built once per geometry.

    Shared by the characterisation circuit and the datapath lanes: the
    netlist is frozen per ``(w_data, w_coeff)``; placement is what varies
    per instantiation.
    """
    netlist = unsigned_array_multiplier(w_data, w_coeff)
    check_netlist(netlist, context=f"multiplier {w_data}x{w_coeff}")
    return netlist.compile()


@dataclass(frozen=True)
class PlacedKey:
    """Identity of one placed multiplier geometry on one die.

    ``temperature_c``/``vdd``/``aging_years`` pin the operating
    conditions — condition scaling is baked into the placed delay
    annotations, so the same die under different conditions is a
    different cache entry.
    """

    family: str
    serial: int
    w_data: int
    w_coeff: int
    anchor: tuple[int, int]
    seed: int
    temperature_c: float
    vdd: float
    aging_years: float

    @classmethod
    def for_device(
        cls,
        device: FPGADevice,
        w_data: int,
        w_coeff: int,
        anchor: tuple[int, int],
        seed: int,
    ) -> "PlacedKey":
        cond = device.conditions
        return cls(
            family=device.family.name,
            serial=int(device.serial),
            w_data=int(w_data),
            w_coeff=int(w_coeff),
            anchor=(int(anchor[0]), int(anchor[1])),
            seed=int(seed),
            temperature_c=float(cond.temperature_c),
            vdd=float(cond.vdd),
            aging_years=float(cond.aging_years),
        )


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of one cache instance.

    ``disk_hits`` always reads 0: the cache has no disk tier.  It stays
    because the pipeline benchmark's tracer still adds it to
    ``memory_hits``.
    """

    memory_hits: int
    misses: int
    stores: int
    memory_entries: int
    disk_hits: int = 0


class PlacedDesignCache:
    """Thread-safe in-memory memo of placed multiplier designs.

    One handle may be shared by concurrent threads: one mutex guards the
    dict and the counters.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._memory: dict[PlacedKey, PlacedDesign] = {}
        self._memory_hits = 0
        self._misses = 0
        self._stores = 0

    def get_or_place(
        self,
        device: FPGADevice,
        w_data: int,
        w_coeff: int,
        anchor: tuple[int, int],
        seed: int,
    ) -> PlacedDesign:
        """The placed multiplier for this key, synthesising on a miss.

        Deterministic: the build path is
        :func:`multiplier_netlist` + :meth:`SynthesisFlow.run`, which is
        pure in the key, so a hit is bit-identical to a rebuild.
        """
        key = PlacedKey.for_device(device, w_data, w_coeff, anchor, seed)
        with self._mutex:
            hit = self._memory.get(key)
            if hit is not None:
                self._memory_hits += 1
            else:
                self._misses += 1
        if hit is not None:
            return hit
        netlist = multiplier_netlist(w_data, w_coeff)
        # The netlist was linted when built; skip the per-placement gate.
        placed = SynthesisFlow(device).run(
            netlist, anchor=anchor, seed=seed, lint=False
        )
        # Racing same-key threads both reach here; the build is pure in
        # the key, so both built bit-identical designs and either install
        # order is fine.
        with self._mutex:
            self._memory[key] = placed
            self._stores += 1
        return placed

    def stats(self) -> CacheStats:
        with self._mutex:
            return CacheStats(
                memory_hits=self._memory_hits,
                misses=self._misses,
                stores=self._stores,
                memory_entries=len(self._memory),
            )


_default_cache: PlacedDesignCache | None = None


def get_default_cache() -> PlacedDesignCache:
    """The process-wide cache every layer places through by default."""
    global _default_cache
    if _default_cache is None:
        _default_cache = PlacedDesignCache()
    return _default_cache


def set_default_cache(cache: PlacedDesignCache | None) -> None:
    """Replace the process-wide cache (``None`` resets to lazy creation)."""
    global _default_cache
    _default_cache = cache
