"""Multiplier performance-characterisation framework (paper Sec. III).

The paper's Fig. 3 test circuit streams a uniform random operand from an
input BRAM through the multiplier under test (a LUT-based generic
multiplier placed somewhere on the device) into an output BRAM, sequenced
by an FSM in a safe clock domain.  The supportive modules are built never
to err (Sec. III-B), so only the multiplier is modelled here: the sweep
places it, simulates its settle behaviour over the stimulus and captures
its output at each PLL-achievable clock.

The harness sweeps clock frequency x device location x multiplicand and
aggregates the observed output errors into the grids the error model
(``repro.models.error_model``) is built from.
"""

from .circuit import TestRun
from .harness import CharacterizationConfig, characterize_multiplier, error_trace
from .results import CharacterizationResult

__all__ = [
    "TestRun",
    "CharacterizationConfig",
    "characterize_multiplier",
    "error_trace",
    "CharacterizationResult",
]
