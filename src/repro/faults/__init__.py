"""Fault injection for the parallel characterisation engine.

The paper's premise is running hardware past its guaranteed envelope and
modelling the resulting errors; :mod:`repro.faults` applies the same
discipline to this software stack.  A deterministic
:class:`FaultPlan` — armed programmatically or via ``REPRO_FAULTS`` —
makes chosen sweep shards crash, hang or return corrupted statistics,
and the resilience layer in
:mod:`repro.parallel` must absorb it.  Because plans are seeded like the
sweep itself, every chaos run is bit-reproducible and a recovered sweep
is bit-identical to the fault-free one (asserted in ``tests/faults/``).

See ``docs/resilience.md`` for the fault taxonomy and the degraded-result
contract.
"""

from .injector import FaultInjector
from .plan import FAULT_KINDS, REPRO_FAULTS_ENV, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "REPRO_FAULTS_ENV",
]
