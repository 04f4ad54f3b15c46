"""Multiplier performance-characterisation framework (paper Sec. III).

Mirrors the architecture of the paper's Fig. 3: an input-stream BRAM feeds
the design under test (a LUT-based generic multiplier placed somewhere on
the device), whose output is captured into an output-stream BRAM; an FSM
sequences the test and a PLL provides the two clock domains (a fast,
swept ``mult_clk`` for the DUT and a safe ``fsm_clk`` for the supportive
modules).

The harness sweeps clock frequency x device location x multiplicand and
aggregates the observed output errors into the records the error model
(``repro.models.error_model``) is built from.
"""

from .stream import InputStreamBRAM, OutputStreamBRAM, M9K_BITS
from .fsm import CharacterizationFSM, FSMState
from .circuit import CharacterizationCircuit, TestRun
from .harness import CharacterizationConfig, characterize_multiplier, error_trace
from .results import CharacterizationRecord, CharacterizationResult

__all__ = [
    "InputStreamBRAM",
    "OutputStreamBRAM",
    "M9K_BITS",
    "CharacterizationFSM",
    "FSMState",
    "CharacterizationCircuit",
    "TestRun",
    "CharacterizationConfig",
    "characterize_multiplier",
    "error_trace",
    "CharacterizationRecord",
    "CharacterizationResult",
]
