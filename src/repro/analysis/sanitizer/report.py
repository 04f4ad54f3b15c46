"""Typed audit results: findings, suppressions and the report object."""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["AuditFinding", "AuditReport", "Suppression"]


@dataclass(frozen=True)
class AuditFinding:
    """One unsuppressed determinism/concurrency hazard.

    Attributes
    ----------
    rule:
        ``DTnnn`` rule ID.
    name:
        The rule's kebab-case name.
    module:
        Dotted module the finding is in.
    qualname:
        Enclosing function/method qualname, or ``<module>`` for
        module-level code.
    path / lineno:
        Source location.
    message:
        What was found, with enough detail to act on.
    """

    rule: str
    name: str
    module: str
    qualname: str
    path: str
    lineno: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.lineno}"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "module": self.module,
            "qualname": self.qualname,
            "path": self.path,
            "lineno": self.lineno,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One finding silenced by a justified ``# repro: allow`` pragma."""

    rule: str
    module: str
    path: str
    lineno: int
    reason: str

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "module": self.module,
            "path": self.path,
            "lineno": self.lineno,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AuditReport:
    """The result of one audit run.

    ``findings`` are the live (unsuppressed, unallowed) hazards;
    ``suppressions`` record every pragma that actually silenced a
    finding, so the cost of each hole stays visible in reports.
    """

    findings: tuple[AuditFinding, ...]
    suppressions: tuple[Suppression, ...]
    n_files: int
    n_functions: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def summary(self) -> str:
        if self.clean:
            status = "clean"
        else:
            per_rule = ", ".join(
                f"{rule} x{n}" for rule, n in sorted(self.counts_by_rule().items())
            )
            status = f"{len(self.findings)} finding(s): {per_rule}"
        return (
            f"audit over {self.n_files} file(s), {self.n_functions} "
            f"function(s): {status}; "
            f"{len(self.suppressions)} justified suppression(s)"
        )

    def to_text(self) -> str:
        lines = [self.summary()]
        for f in self.findings:
            lines.append(
                f"  {f.rule} [{f.name}] {f.location()} ({f.qualname}): {f.message}"
            )
        if self.suppressions:
            lines.append("suppressed:")
            for s in self.suppressions:
                lines.append(f"  {s.rule} {s.path}:{s.lineno}: {s.reason}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "clean": self.clean,
            "n_files": self.n_files,
            "n_functions": self.n_functions,
            "counts_by_rule": self.counts_by_rule(),
            "findings": [f.as_dict() for f in self.findings],
            "suppressions": [s.as_dict() for s in self.suppressions],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)
