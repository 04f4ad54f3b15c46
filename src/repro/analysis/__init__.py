"""Netlist static analysis: a pass-based linter over netlist DAGs.

The subsystem guards the characterisation/optimisation pipeline against
structurally unsound generated netlists (paper Fig. 2: every design the
framework characterises or places passes through here first).  It offers:

* :func:`lint_netlist` — run all passes, get a typed
  :class:`LintReport` of severity-ranked :class:`Diagnostic` findings;
* :func:`check_netlist` — the gate form: raise
  :class:`~repro.errors.LintError` on findings at/above the threshold;
* :class:`LintConfig` — rule suppression, severity overrides, budgets;
* the rule registry in :mod:`repro.analysis.passes` (stable ``NLxxx``
  IDs, catalogued in ``docs/static_analysis.md``).

The gate is wired into :meth:`repro.synthesis.flow.SynthesisFlow.run`
(on by default) and :func:`repro.netlist.generators.generate` (behind
``repro.config.AnalysisSettings.lint_generated``), and is exposed on the
command line as ``repro lint``.

On top of the structural layer sits the word-level semantic layer:

* :mod:`repro.analysis.dataflow` — known-bits/range abstract
  interpretation (:func:`analyze_dataflow`), feeding the ``WL0xx`` lint
  rules;
* :mod:`repro.analysis.equivalence` — :func:`prove_multiplier`
  certificates against golden integer arithmetic;
* :mod:`repro.analysis.sensitization` — false-path-aware STA and the
  per-coefficient timing profiles consumed by
  :meth:`repro.models.prior.CoefficientPrior.from_static_profile`;

exposed on the command line as ``repro analyze``.

Orthogonal to both: :mod:`repro.analysis.sanitizer` audits the repo's
*own Python source* (not netlists) for determinism and concurrency
hazards — the ``DTnnn`` rules behind ``repro audit``.  Import it by its
own name; this package does not load it, so ``import repro`` stays free
of the AST auditor.
"""

from .context import AnalysisContext
from .dataflow import (
    BIT_ONE,
    BIT_TOP,
    BIT_ZERO,
    DataflowResult,
    IntRange,
    ProbeReport,
    analyze_dataflow,
    probe_dataflow,
)
from .diagnostics import Diagnostic, LintReport, Severity
from .equivalence import (
    EquivalenceCertificate,
    prove_multiplier,
    prove_multiplier_family,
)
from .linter import LintConfig, LintWarning, check_netlist, lint_netlist
from .passes import REGISTRY, Finding, LintRule, rule_table, rule_table_markdown
from .sensitization import (
    CoefficientTimingProfile,
    agreement_report,
    coefficient_timing_profile,
    sensitized_sta,
)

__all__ = [
    "AnalysisContext",
    "Diagnostic",
    "LintReport",
    "Severity",
    "LintConfig",
    "LintWarning",
    "check_netlist",
    "lint_netlist",
    "REGISTRY",
    "Finding",
    "LintRule",
    "rule_table",
    "rule_table_markdown",
    "BIT_ZERO",
    "BIT_ONE",
    "BIT_TOP",
    "IntRange",
    "DataflowResult",
    "analyze_dataflow",
    "ProbeReport",
    "probe_dataflow",
    "EquivalenceCertificate",
    "prove_multiplier",
    "prove_multiplier_family",
    "CoefficientTimingProfile",
    "sensitized_sta",
    "coefficient_timing_profile",
    "agreement_report",
]
