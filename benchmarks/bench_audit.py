#!/usr/bin/env python
"""Benchmark the DT determinism audit and re-assert its contracts.

Measures the exact run ``scripts/check.sh`` gates on — the ``DTxxx``
determinism audit over ``src/repro`` — and records wall time plus
throughput (files per second), so a regression that makes the gate
expensive shows up as a diff in the committed JSON.

Every run re-asserts the audit's contracts before writing JSON:

* the library's own source is **clean**: zero unsuppressed findings;
* every pragma suppression carries a written justification;
* the analyzer is **deterministic**: repeated audits of the same tree
  produce byte-identical report JSON (an audit whose output depended on
  iteration order could not police DT004 with a straight face);
* the audit actually covered the tree (file/function/reachability
  counts above sanity floors — an audit that silently scanned nothing
  would otherwise look infinitely fast).

Writes ``BENCH_audit.json``.  ``--smoke`` drops the repeat count for
the ``scripts/check.sh`` gate.

Usage::

    python benchmarks/bench_audit.py
    python benchmarks/bench_audit.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.sanitizer import audit_paths

SCHEMA_VERSION = 3

_TOP_KEYS = {"schema_version", "benchmark", "smoke", "cpus", "audit"}
_AUDIT_KEYS = {
    "seconds",
    "repeats",
    "n_files",
    "n_functions",
    "n_reachable",
    "n_findings",
    "n_suppressions",
    "suppressed_rules",
    "files_per_second",
    "deterministic",
}

#: Sanity floors: the audited tree is a real library, not a fixture.
_MIN_FILES = 50
_MIN_FUNCTIONS = 300

#: Generous wall-time bound for one audit of src/repro.  The check.sh
#: gate runs this on every push; minutes-long static analysis would be
#: a usability regression worth failing loudly over.
_SECONDS_BOUND = 30.0


def _summary(report, seconds: float, repeats: int, serialized: list) -> dict:
    return {
        "seconds": round(seconds, 4),
        "repeats": repeats,
        "n_files": report.n_files,
        "n_functions": report.n_functions,
        "n_reachable": report.n_reachable,
        "n_findings": len(report.findings),
        "n_suppressions": len(report.suppressions),
        "suppressed_rules": sorted(s.rule for s in report.suppressions),
        "files_per_second": round(report.n_files / seconds, 1),
        "deterministic": len(set(serialized)) == 1,
        "entry_points": list(report.entry_points),
        "unjustified_suppressions": [
            s.rule for s in report.suppressions if not s.reason.strip()
        ],
    }


def _bench_audit(root: Path, repeats: int) -> dict:
    audit_paths([root])  # warm-up: imports, bytecode

    best = None
    serialized = []
    report = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = audit_paths([root])
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        serialized.append(report.to_json())
    print(
        f"  dt: {report.n_files} files, {report.n_functions} functions, "
        f"{report.n_reachable} reachable — best of {repeats}: {best:.3f}s"
    )
    return _summary(report, best, repeats, serialized)


def _validate(payload: dict) -> None:
    for section, keys in ((payload, _TOP_KEYS), (payload["audit"], _AUDIT_KEYS)):
        missing = keys - section.keys()
        if missing:
            raise AssertionError(f"payload missing keys: {sorted(missing)}")
    audit = payload["audit"]
    if audit["n_findings"] != 0:
        raise AssertionError(
            f"src/repro is not clean: {audit['n_findings']} unsuppressed "
            "findings (run `repro audit src/repro` for the list)"
        )
    if audit["unjustified_suppressions"]:
        raise AssertionError(
            f"pragmas without justification: {audit['unjustified_suppressions']}"
        )
    if not audit["deterministic"]:
        raise AssertionError("repeated audits produced different report JSON")
    if audit["n_files"] < _MIN_FILES or audit["n_functions"] < _MIN_FUNCTIONS:
        raise AssertionError(
            f"audit coverage collapsed: {audit['n_files']} files / "
            f"{audit['n_functions']} functions scanned"
        )
    if audit["n_reachable"] < len(audit["entry_points"]):
        raise AssertionError("entry points no longer resolve to scanned functions")
    if audit["seconds"] > _SECONDS_BOUND:
        raise AssertionError(
            f"audit took {audit['seconds']:.1f}s, over the "
            f"{_SECONDS_BOUND:.0f}s bound"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true", help="fewer repeats for CI")
    parser.add_argument(
        "--output",
        default="BENCH_audit.json",
        help="where to write the results JSON",
    )
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    repeats = 2 if args.smoke else 5
    print(f"audit ({'smoke' if args.smoke else 'reference'}): {root}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "audit",
        "smoke": args.smoke,
        "cpus": os.cpu_count() or 1,
        "audit": _bench_audit(root, repeats),
    }
    _validate(payload)
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
