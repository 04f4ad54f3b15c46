"""The lint driver: configuration, report assembly and the gate helper.

:func:`lint_netlist` runs every enabled pass over a netlist (builder or
compiled form) and returns a :class:`~repro.analysis.diagnostics.LintReport`.
:func:`check_netlist` is the gate used by the synthesis flow and the
placed-design cache: it raises :class:`~repro.errors.LintError` when the
report fails the configured severity threshold and funnels sub-threshold
warnings through :mod:`warnings` so sweeps stay observable but quiet.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ..errors import AnalysisError, LintError
from ..netlist.core import CompiledNetlist, Netlist
from .context import AnalysisContext
from .diagnostics import Diagnostic, LintReport, Severity
from .passes import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dataflow import RangeLike

__all__ = ["LintConfig", "LintWarning", "lint_netlist", "check_netlist"]


class LintWarning(UserWarning):
    """Category for sub-threshold lint findings surfaced via :mod:`warnings`."""


@dataclass(frozen=True)
class LintConfig:
    """Knobs of one lint run.

    Attributes
    ----------
    disabled:
        Rule IDs to skip entirely (e.g. ``{"NL006"}``).  Every other
        rule reports at its registered default severity.
    max_fanout / max_depth:
        Budgets for NL009 / NL010.
    fail_on:
        Severity threshold at which :func:`check_netlist` (and the CLI
        exit code) treat the report as a failure.
    """

    disabled: frozenset[str] = frozenset()
    max_fanout: int = 32
    max_depth: int = 128
    fail_on: Severity = Severity.ERROR

    def __post_init__(self) -> None:
        for rule_id in sorted(self.disabled):
            if rule_id not in REGISTRY:
                raise AnalysisError(
                    f"unknown rule ID {rule_id!r}; known rules: "
                    f"{sorted(REGISTRY)}"
                )
        if self.max_fanout < 1 or self.max_depth < 1:
            raise AnalysisError("lint budgets must be >= 1")

    @classmethod
    def build(
        cls,
        disabled: Iterable[str] = (),
        max_fanout: int | None = None,
        max_depth: int | None = None,
        fail_on: "Severity | str" = Severity.ERROR,
    ) -> "LintConfig":
        """Lenient constructor accepting a severity name for ``fail_on``
        (CLI-facing); a budget left at ``None`` keeps the field default."""
        return cls(
            disabled=frozenset(disabled),
            max_fanout=cls.max_fanout if max_fanout is None else max_fanout,
            max_depth=cls.max_depth if max_depth is None else max_depth,
            fail_on=Severity.parse(fail_on),
        )


def lint_netlist(
    netlist: Netlist | CompiledNetlist,
    config: LintConfig | None = None,
    assumptions: Mapping[str, "RangeLike"] | None = None,
) -> LintReport:
    """Run all enabled passes over ``netlist`` and collect a report.

    Works on both the mutable builder and the compiled array form; a
    structurally broken netlist produces ``NL000`` errors and skips the
    passes that need a sound DAG instead of crashing.

    ``assumptions`` (bus name -> value or ``(lo, hi)`` range) feed the
    word-level ``WL0xx`` passes: WL001 validates them against bus
    boundaries and WL003 reports logic they freeze.
    """
    cfg = config if config is not None else LintConfig()
    ctx = AnalysisContext.build(netlist, assumptions=assumptions)
    diagnostics: list[Diagnostic] = []
    for rule_id in sorted(REGISTRY):
        rule = REGISTRY[rule_id]
        if rule_id in cfg.disabled:
            continue
        if rule.needs_sound_structure and not ctx.sound:
            continue
        for finding in rule.fn(ctx, cfg):
            diagnostics.append(
                Diagnostic(
                    rule=rule_id,
                    name=rule.name,
                    severity=rule.default_severity,
                    message=finding.message,
                    nodes=finding.nodes,
                    bus=finding.bus,
                )
            )
    diagnostics.sort(key=lambda d: (-int(d.severity), d.rule, d.nodes, d.message))
    return LintReport(
        netlist=ctx.name, n_nodes=ctx.n_nodes, diagnostics=tuple(diagnostics)
    )


def check_netlist(
    netlist: Netlist | CompiledNetlist,
    config: LintConfig | None = None,
    context: str = "",
    assumptions: Mapping[str, "RangeLike"] | None = None,
) -> LintReport:
    """Lint gate: raise :class:`LintError` on failure, warn otherwise.

    Parameters
    ----------
    context:
        Optional prefix naming the gate location (e.g. ``"synthesis flow"``)
        for error and warning messages.

    Returns
    -------
    LintReport
        The report, when the gate passes.
    """
    cfg = config if config is not None else LintConfig()
    report = lint_netlist(netlist, cfg, assumptions=assumptions)
    prefix = f"{context}: " if context else ""
    if not report.ok(cfg.fail_on):
        raise LintError(
            f"{prefix}netlist {report.netlist!r} failed lint "
            f"(threshold {cfg.fail_on}):\n"
            + report.to_text(min_severity=cfg.fail_on),
            report=report,
        )
    if not report.clean:
        _warnings.warn(
            f"{prefix}{report.summary()}", LintWarning, stacklevel=2
        )
    return report
