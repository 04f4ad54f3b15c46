"""Behaviour of the AST/call-graph auditor on seeded hazard fixtures.

Each test writes a small package tree to ``tmp_path``, seeds it with a
known determinism/concurrency hazard, and asserts the corresponding DT
rule fires (or, for the negative cases, stays silent): the acceptance
check that a real regression — e.g. an un-derived ``random.random()`` in
a shard-reachable function — cannot land unnoticed.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.sanitizer import Allowance, audit_paths
from repro.analysis.sanitizer.effects import EFFECT_ENV_READ


def run_audit(tmp_path: Path, files: dict[str, str], entry_points, allowances=()):
    """Write ``files`` into a ``pkg`` package under ``tmp_path`` and audit it."""
    pkg = tmp_path / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, text in files.items():
        target = pkg / name
        target.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/__init__.py") or name == "__init__.py":
            target.write_text(textwrap.dedent(text))
        else:
            target.write_text(textwrap.dedent(text))
    return audit_paths(
        [pkg], entry_points=tuple(entry_points), allowances=tuple(allowances)
    )


def rules_fired(report):
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# DT001 ambient RNG


def test_ambient_random_in_reachable_function_is_caught(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return random.random()
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT001"}
    (finding,) = report.findings
    assert finding.qualname == "run"
    assert "global stdlib generator" in finding.message


def test_ambient_random_in_unreachable_function_is_ignored(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return 1

            def report_only():
                return random.random()
            """
        },
        ["pkg.shard:run"],
    )
    assert report.clean


def test_hazard_found_through_transitive_calls(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "helpers.py": """
            import random

            def jitter():
                return random.gauss(0.0, 1.0)
            """,
            "shard.py": """
            from .helpers import jitter

            def middle():
                return jitter()

            def run():
                return middle()
            """,
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT001"}
    (finding,) = report.findings
    assert finding.module == "pkg.helpers"
    assert finding.qualname == "jitter"


def test_unseeded_default_rng_flagged_seeded_ok(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import numpy as np
            from numpy.random import default_rng

            def run(seed):
                good = default_rng(seed)
                also_good = np.random.default_rng(seed)
                bad = np.random.default_rng()
                return good, also_good, bad
            """
        },
        ["pkg.shard:run"],
    )
    assert [f.rule for f in report.findings] == ["DT001"]
    assert "without a seed" in report.findings[0].message


def test_numpy_global_draw_flagged(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import numpy as np

            def run():
                return np.random.rand(4)
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT001"}


# ----------------------------------------------------------------------
# DT002 wall clock / DT009 hash / DT010 entropy (reachable scope)


def test_clock_hash_and_entropy_reads_caught(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import time
            import uuid

            def run(key):
                t = time.perf_counter()
                h = hash(key)
                u = uuid.uuid4()
                return t, h, u
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT002", "DT009", "DT010"}


def test_datetime_now_caught_via_from_import(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            from datetime import datetime

            def run():
                return datetime.now()
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT002"}


# ----------------------------------------------------------------------
# DT003 ambient environment (everywhere scope)


def test_environ_read_flagged_even_unreachable(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "config.py": """
            import os

            def load():
                return os.environ.get("X"), os.getenv("Y")
            """
        },
        [],
    )
    assert [f.rule for f in report.findings] == ["DT003", "DT003"]


def test_environ_read_sanctioned_by_allowance(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "config.py": """
            import os

            def load():
                return os.environ.get("X")
            """
        },
        [],
        allowances=[
            Allowance(
                EFFECT_ENV_READ, "pkg.config", None, "designated env boundary"
            )
        ],
    )
    assert report.clean


def test_allowance_qualname_scoping(tmp_path):
    files = {
        "config.py": """
        import os

        def load():
            return os.environ.get("X")

        def other():
            return os.environ.get("Y")
        """
    }
    scoped = run_audit(
        tmp_path,
        files,
        [],
        allowances=[
            Allowance(EFFECT_ENV_READ, "pkg.config", "load", "the one front door")
        ],
    )
    assert [f.qualname for f in scoped.findings] == ["other"]


# ----------------------------------------------------------------------
# DT004 unordered iteration / DT005 module state


def test_set_iteration_flagged_sorted_ok(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            def run(items):
                bad = [x for x in {1, 2, 3}]
                also_bad = list({i for i in items})
                fine = sorted({1, 2, 3})
                for x in sorted(set(items)):
                    pass
                return bad, also_bad, fine
            """
        },
        ["pkg.shard:run"],
    )
    assert [f.rule for f in report.findings] == ["DT004", "DT004"]


def test_module_level_mutable_state_in_reachable_module(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            __all__ = ["run"]

            CACHE = {}

            def run():
                return CACHE
            """
        },
        ["pkg.shard:run"],
    )
    # __all__ is exempt; CACHE is not.
    assert [(f.rule, f.qualname) for f in report.findings] == [("DT005", "CACHE")]


def test_module_state_in_unreachable_module_ignored(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "reports.py": """
            CACHE = {}

            def render():
                return CACHE
            """,
            "shard.py": """
            def run():
                return 1
            """,
        },
        ["pkg.shard:run"],
    )
    assert report.clean


def test_module_state_found_via_import_closure(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "state.py": """
            REGISTRY = {}
            """,
            "shard.py": """
            from . import state

            def run():
                return 1
            """,
        },
        ["pkg.shard:run"],
    )
    assert [f.rule for f in report.findings] == ["DT005"]
    assert report.findings[0].module == "pkg.state"


# ----------------------------------------------------------------------
# DT006 shared-disk discipline (scoped to repro.workspace)


def _shared_disk_tree(body: str) -> dict[str, str]:
    return {
        "__init__.py": "",
        "workspace.py": body,
    }


def run_shared_disk_audit(tmp_path: Path, body: str):
    root = tmp_path / "repro"
    root.mkdir()
    for name, text in _shared_disk_tree(body).items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return audit_paths([root], entry_points=(), allowances=())


def test_nonatomic_write_in_shared_disk_module(tmp_path):
    report = run_shared_disk_audit(
        tmp_path,
        """
        def store(path, data):
            with open(path, "wb") as fh:
                fh.write(data)
        """,
    )
    assert rules_fired(report) == {"DT006"}


def test_atomic_write_discipline_accepted(tmp_path):
    report = run_shared_disk_audit(
        tmp_path,
        """
        import os

        def store(path, tmp, data):
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)

        def store_text(path, tmp, text):
            tmp.write_text(text)
            os.replace(tmp, path)
        """,
    )
    assert report.clean


def test_write_outside_shared_disk_module_ignored(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "io_helpers.py": """
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
            """
        },
        [],
    )
    assert report.clean


# ----------------------------------------------------------------------
# DT008 fork-unsafe submission (everywhere scope)


def test_lambda_and_closure_submissions_flagged(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            def top_level(x):
                return x

            def dispatch(pool, payload):
                pool.submit(lambda: payload)
                def local():
                    return payload
                pool.submit(local)
                pool.submit(top_level, payload)
                return None

            class Engine:
                def go(self, pool):
                    pool.submit(self.work)

                def work(self):
                    return 1
            """
        },
        [],
    )
    kinds = sorted(f.message for f in report.findings)
    assert [f.rule for f in report.findings] == ["DT008"] * 3
    assert any("lambda" in m for m in kinds)
    assert any("nested closure" in m for m in kinds)
    assert any("bound method" in m for m in kinds)


# ----------------------------------------------------------------------
# Pragma suppression semantics (DT000)


def test_justified_pragma_suppresses_and_is_recorded(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return random.random()  # repro: allow[DT001] -- test fixture exercising suppression
            """
        },
        ["pkg.shard:run"],
    )
    assert report.clean
    (supp,) = report.suppressions
    assert supp.rule == "DT001"
    assert supp.reason == "test fixture exercising suppression"


def test_pragma_on_preceding_comment_line(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                # repro: allow[DT001] -- fixture: pragma on the line above
                return random.random()
            """
        },
        ["pkg.shard:run"],
    )
    assert report.clean
    assert len(report.suppressions) == 1


def test_unjustified_pragma_is_a_finding_and_does_not_suppress(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return random.random()  # repro: allow[DT001]
            """
        },
        ["pkg.shard:run"],
    )
    assert sorted(rules_fired(report)) == ["DT000", "DT001"]
    assert not report.suppressions


def test_pragma_naming_unknown_rule_is_a_finding(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            def run():
                return 1  # repro: allow[DT999] -- no such rule
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT000"}
    assert "DT999" in report.findings[0].message


def test_pragma_for_wrong_rule_does_not_suppress(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return random.random()  # repro: allow[DT002] -- wrong rule named
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT001"}


def test_pragma_mention_inside_docstring_is_not_parsed(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": '''
            def run():
                """Explains the marker ``# repro: allow[DTnnn]`` form."""
                return 1
            '''
        },
        ["pkg.shard:run"],
    )
    assert report.clean


# ----------------------------------------------------------------------
# Report plumbing


def test_report_counts_and_json_roundtrip(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                a = random.random()
                b = random.random()
                return a, b
            """
        },
        ["pkg.shard:run"],
    )
    assert report.counts_by_rule() == {"DT001": 2}
    assert not report.clean
    payload = report.as_dict()
    assert payload["counts_by_rule"] == {"DT001": 2}
    assert len(payload["findings"]) == 2
    assert "DT001" in report.to_text()


def test_disabled_rules_are_skipped(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return random.random()
            """
        },
        ["pkg.shard:run"],
    )
    assert not report.clean
    quiet = audit_paths(
        [tmp_path / "pkg"],
        entry_points=("pkg.shard:run",),
        allowances=(),
        disabled=frozenset({"DT001"}),
    )
    assert quiet.clean
