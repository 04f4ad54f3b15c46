"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """An invalid configuration value or combination was supplied."""


class NetlistError(ReproError):
    """A structural problem with a netlist (cycle, dangling net, bad arity)."""


class AnalysisError(ReproError):
    """The static-analysis subsystem was misconfigured or misused
    (unknown rule ID, invalid severity name, bad budget value)."""


class LintError(AnalysisError):
    """A netlist failed the lint gate.

    Raised by :func:`repro.analysis.check_netlist` (and therefore by the
    synthesis flow and the generator factory when linting is enabled) when a
    :class:`~repro.analysis.LintReport` contains diagnostics at or above the
    configured failure severity.  The offending report is attached as
    ``report``.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class KernelError(ReproError):
    """The bit-sliced kernel compiler failed an internal contract.

    Raised by :mod:`repro.kernels` when a truth-table lowering does not
    verify against its table, a plan is executed against a mismatched
    netlist, or the packed representation cannot be built on this
    platform.  User-input problems (unknown bus, bad shapes) keep
    raising :class:`NetlistError` exactly like the interpreted path.
    """


class PlacementError(ReproError):
    """Placement could not be completed (region too small, out of bounds)."""


class TimingError(ReproError):
    """A timing analysis or timing simulation precondition was violated."""


class CharacterizationError(ReproError):
    """The characterisation harness was misused or produced no data."""


class FaultPlanError(ConfigError):
    """A fault-injection plan is malformed (unknown kind, bad counts,
    unparseable ``REPRO_FAULTS`` value)."""


class InjectedFaultError(ReproError):
    """Raised *by* an armed crash fault inside a shard.

    This is the exception chaos plans throw on purpose; the resilience
    layer treats it exactly like any other shard failure, but tests can
    discriminate injected crashes from organic ones.
    """


class SweepFailedError(CharacterizationError):
    """A sharded sweep could not produce a usable result.

    Raised when shards remain quarantined after all retries and the
    caller did not opt into degraded results.  The full
    :class:`~repro.parallel.retry.SweepOutcome` is attached as
    ``outcome`` so callers can inspect per-shard attempt histories.
    """

    def __init__(self, message: str, outcome: object | None = None) -> None:
        super().__init__(message)
        self.outcome = outcome


class ObservabilityError(ReproError):
    """The observability subsystem was misused: an uncatalogued span or
    metric name, a kind mismatch against the telemetry catalogue, or an
    unreadable trace/metrics artefact.

    Telemetry names are closed-world on purpose — every span and metric the
    library can emit is declared in :mod:`repro.obs.spec`, which is what
    lets ``docs/observability.md`` be generated and drift-tested."""


class ModelError(ReproError):
    """An analytical model (error/area/prior/runtime) was queried outside
    its supported domain or fitted from insufficient data."""


class OptimizationError(ReproError):
    """The design-space exploration (Algorithm 1) failed to make progress."""


class DesignError(ReproError):
    """A linear-projection design is structurally invalid or inconsistent."""
