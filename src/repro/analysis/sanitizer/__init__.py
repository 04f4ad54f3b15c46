"""Determinism & concurrency sanitizer: static shard-purity analysis.

The static half of the reproducibility story.  ``tests/parallel`` proves
the determinism invariant *empirically* (bitwise comparisons at several
worker counts); this package proves it *structurally*: an AST +
call-graph pass over the repository's own source verifies that no code
reachable from a shard entry point performs an uncatalogued ambient
effect (RNG, clocks, environment, hash-order iteration, non-atomic
shared writes, ...).

* :mod:`~repro.analysis.sanitizer.effects` — the closed-world effect
  catalogue, entry points, and allowance policy;
* :mod:`~repro.analysis.sanitizer.rules` — the stable ``DTnnn`` rule
  registry and the generated docs table;
* :mod:`~repro.analysis.sanitizer.auditor` — the analysis engine
  (:func:`audit_paths`);
* :mod:`~repro.analysis.sanitizer.report` — typed findings and reports.

Exposed on the command line as ``repro audit`` and gated to zero
findings in ``scripts/check.sh``.
"""

from .auditor import ModuleIndex, audit_paths, build_module_index, discover_files
from .effects import (
    ALLOWANCES,
    EFFECT_CATALOG,
    ENTRY_POINTS,
    Allowance,
    EffectSpec,
    effect_catalogue_markdown,
)
from .report import AuditFinding, AuditReport, Suppression
from .rules import (
    DT_REGISTRY,
    DTRule,
    dt_rule_table,
    dt_rule_table_markdown,
    rule_for_effect,
)

__all__ = [
    "ALLOWANCES",
    "Allowance",
    "AuditFinding",
    "AuditReport",
    "DTRule",
    "DT_REGISTRY",
    "EFFECT_CATALOG",
    "ENTRY_POINTS",
    "EffectSpec",
    "ModuleIndex",
    "Suppression",
    "audit_paths",
    "build_module_index",
    "discover_files",
    "dt_rule_table",
    "dt_rule_table_markdown",
    "effect_catalogue_markdown",
    "rule_for_effect",
]
