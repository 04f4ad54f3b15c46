"""The rule catalogue in docs/static_analysis.md is generated; keep it so."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis import REGISTRY, rule_table_markdown

DOC = Path(__file__).resolve().parents[2] / "docs" / "static_analysis.md"

BEGIN = "<!-- rule-table:begin"
END = "<!-- rule-table:end -->"


def _doc_table() -> str:
    text = DOC.read_text()
    assert BEGIN in text and END in text, "rule-table markers missing"
    start = text.index("\n", text.index(BEGIN)) + 1
    return text[start : text.index(END)].strip()


def test_doc_table_matches_registry():
    assert _doc_table() == rule_table_markdown().strip(), (
        "docs/static_analysis.md rule table is stale; regenerate the "
        "block between the rule-table markers with "
        "repro.analysis.rule_table_markdown()"
    )


def test_every_rule_documented_exactly_once():
    table = _doc_table()
    for rule_id in REGISTRY:
        assert len(re.findall(rf"\| {rule_id} \|", table)) == 1


def test_doc_mentions_wl_layer():
    text = DOC.read_text()
    for needle in (
        "analyze_dataflow",
        "sensitized_sta",
        "agreement_report",
        "from_static_profile",
    ):
        assert needle in text, f"docs/static_analysis.md lost {needle}"
