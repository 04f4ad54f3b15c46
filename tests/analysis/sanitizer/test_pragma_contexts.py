"""Pragma scanning in multi-line/decorated contexts, and DT000 rule IDs.

Pins the anchoring rules precisely: a pragma suppresses only from the
hazard's own line or the comment-only line directly above it — trailing
a multi-line call's closing paren or riding a decorator does nothing.
DT000 (pragma hygiene) validates rule IDs against the DT registry: any
other ID, including one of the retired DX family, is a finding.
"""

from __future__ import annotations

from .test_auditor import rules_fired, run_audit


def test_pragma_on_hazard_line_inside_multiline_call(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return sum((
                    random.gauss(0.0, 1.0),  # repro: allow[DT001] -- fixture: inner line of a multi-line call
                    1.0,
                ))
            """
        },
        ["pkg.shard:run"],
    )
    assert report.clean
    (supp,) = report.suppressions
    assert supp.rule == "DT001"


def test_pragma_on_closing_paren_of_multiline_call_does_not_suppress(tmp_path):
    # The occurrence anchors to the call's first line; a pragma trailing
    # the closing paren is on the wrong line and must not suppress.
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import random

            def run():
                return random.gauss(
                    0.0,
                    1.0,
                )  # repro: allow[DT001] -- fixture: anchored to the wrong line
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT001"}
    assert not report.suppressions


def test_pragma_comment_line_above_hazard_in_decorated_function(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import functools
            import random

            @functools.lru_cache(maxsize=None)
            def run():
                # repro: allow[DT001] -- fixture: hazard inside a decorated function
                return random.random()
            """
        },
        ["pkg.shard:run"],
    )
    assert report.clean
    assert len(report.suppressions) == 1


def test_pragma_on_decorator_line_does_not_reach_the_body(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            import functools
            import random

            @functools.lru_cache(maxsize=None)  # repro: allow[DT001] -- fixture: wrong anchor
            def run():
                return random.random()
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT001"}
    assert not report.suppressions


# ----------------------------------------------------------------------
# DT000: only DT rule IDs are known.


#: A rule of the retired distribution-readiness (DX) family.  Spelled
#: in two parts so the retired ID occurs nowhere in the source tree.
RETIRED_DX_RULE = "DX" + "007"


def test_pragma_naming_retired_dx_rule_is_dt000(tmp_path):
    # A leftover pragma naming a retired DX rule neither suppresses nor
    # passes silently: only DT rule IDs are known.
    report = run_audit(
        tmp_path,
        {
            "shard.py": f"""
            import random

            def run():
                return random.random()  # repro: allow[{RETIRED_DX_RULE}] -- fixture: retired rule
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT000", "DT001"}
    assert not report.suppressions
    (dt000,) = [f for f in report.findings if f.rule == "DT000"]
    assert f"unknown rule ID(s) {RETIRED_DX_RULE}" in dt000.message


def test_pragma_naming_unknown_dx_rule_is_dt000(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            def run():
                return 1  # repro: allow[DX999] -- no such rule
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT000"}
    assert "DX999" in report.findings[0].message


def test_pragma_with_foreign_family_prefix_is_dt000(tmp_path):
    report = run_audit(
        tmp_path,
        {
            "shard.py": """
            def run():
                return 1  # repro: allow[NL001] -- wrong family for source audits
            """
        },
        ["pkg.shard:run"],
    )
    assert rules_fired(report) == {"DT000"}
