"""The library's own source must satisfy its own determinism policy.

This is the in-tree twin of the ``scripts/check.sh`` gate: ``repro audit
src/repro`` reports zero unsuppressed findings, and every pragma that
does suppress something carries a justification (DT000 enforces the
latter by construction — an unjustified pragma is itself a finding).
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.sanitizer import ALLOWANCES, DT_REGISTRY, audit_paths
from repro.analysis.sanitizer.auditor import _allowed

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"


@cache
def _report():
    return audit_paths([SRC])


def test_library_source_is_audit_clean():
    report = _report()
    assert report.clean, "\n" + report.to_text()


def test_every_suppression_is_justified():
    report = _report()
    assert report.suppressions, (
        "expected the known pragma suppression (pll.py DT004) to be "
        "recorded, not silently dropped"
    )
    for supp in report.suppressions:
        assert supp.reason and len(supp.reason) > 10, (
            f"{supp.path}:{supp.lineno} pragma lacks a real justification"
        )


def test_every_allowance_suppresses_something():
    # Audited with no policy, every occurrence an allowance would let
    # through is a finding; an entry that matches none of them is stale.
    unpoliced = audit_paths([SRC], allowances=())
    for allowance in ALLOWANCES:
        matched = [
            f
            for f in unpoliced.findings
            if _allowed(
                SimpleNamespace(
                    effect=DT_REGISTRY[f.rule].effect, qualname=f.qualname
                ),
                f.module,
                (allowance,),
            )
        ]
        assert matched, (
            f"stale allowance: {allowance.effect} in {allowance.module}"
            f"{' · ' + allowance.qualname if allowance.qualname else ''} "
            "suppresses nothing in src/repro; delete it"
        )


def test_audit_scales_sanely():
    report = _report()
    assert report.n_files > 80
    assert report.n_functions > 500


def test_audit_is_deterministic():
    # An audit whose output hung on iteration order could not police
    # DT004 (unordered iteration) itself.
    assert audit_paths([SRC]).to_json() == audit_paths([SRC]).to_json()


# ----------------------------------------------------------------------
# CLI surface.


def _run_cli(argv):
    from repro.cli import main

    return main(["audit", *argv])


def test_cli_exits_zero_on_clean_tree(capsys):
    assert _run_cli([str(SRC)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_rules_prints_only_the_dt_table(capsys):
    assert _run_cli(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "DT000" in out and "DT010" in out
    assert "DX0" not in out


def test_cli_trace_records_the_audit_span_without_changing_the_report(
    tmp_path, capsys
):
    import json

    assert _run_cli([str(SRC)]) == 0
    plain = capsys.readouterr().out
    base = tmp_path / "audit_run"
    assert _run_cli(["--trace", str(base), str(SRC)]) == 0
    assert capsys.readouterr().out == plain
    lines = (base.parent / f"{base.name}.jsonl").read_text().splitlines()
    assert "audit.run" in {json.loads(line)["name"] for line in lines}


@pytest.mark.parametrize(
    "case, problem",
    [
        ("missing", "no such file or directory"),
        ("not-python", "not a Python file or directory"),
        ("no-python-files", "no Python files under it"),
        ("syntax-error", "invalid syntax"),
    ],
    ids=["missing", "not-python", "no-python-files", "syntax-error"],
)
def test_cli_refuses_a_tree_it_cannot_read(tmp_path, capsys, case, problem):
    # A typo, a README or an unparsable file must not pass for a clean
    # tree: the audit names what it could not read and exits 2.
    target = named = tmp_path / "tree"
    if case == "not-python":
        target = named = tmp_path / "README.md"
        target.write_text("# not python\n")
    elif case == "no-python-files":
        target.mkdir()
        (target / "notes.txt").write_text("no code here\n")
    elif case == "syntax-error":
        target.mkdir()
        named = target / "broken.py"
        named.write_text("def run(:\n    return 1\n")
    assert _run_cli([str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot audit {named}: {problem}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
