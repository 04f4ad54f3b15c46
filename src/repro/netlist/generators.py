"""Parametric generator registry.

A light indirection so harness code (characterisation, synthesis sweeps,
CLI) can request designs-under-test by name, mirroring how the paper's
framework is "independent from the design under test" (Sec. III-A).
"""

from __future__ import annotations

from typing import Callable

from ..errors import NetlistError
from .ccm import ccm_multiplier
from .core import Netlist
from .mac import mac_block
from .wallace import wallace_tree_multiplier
from .multipliers import (
    baugh_wooley_multiplier,
    sign_magnitude_multiplier,
    unsigned_array_multiplier,
)

__all__ = ["GENERATORS", "generate", "register_generator"]

GENERATORS: dict[str, Callable[..., Netlist]] = {
    "unsigned_multiplier": unsigned_array_multiplier,
    "baugh_wooley_multiplier": baugh_wooley_multiplier,
    "sign_magnitude_multiplier": sign_magnitude_multiplier,
    "ccm": ccm_multiplier,
    "mac": mac_block,
    "wallace_multiplier": wallace_tree_multiplier,
}


def register_generator(name: str, fn: Callable[..., Netlist]) -> None:
    """Register a new design-under-test generator under ``name``."""
    if name in GENERATORS:
        raise NetlistError(f"generator {name!r} already registered")
    GENERATORS[name] = fn


def generate(name: str, *args, **kwargs) -> Netlist:
    """Instantiate a registered generator by name."""
    try:
        fn = GENERATORS[name]
    except KeyError:
        raise NetlistError(
            f"unknown generator {name!r}; available: {sorted(GENERATORS)}"
        ) from None
    return fn(*args, **kwargs)
