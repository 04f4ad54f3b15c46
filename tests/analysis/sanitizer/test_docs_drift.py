"""The DT tables in docs/static_analysis.md are generated; keep it so."""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.sanitizer import (
    DT_REGISTRY,
    dt_rule_table_markdown,
    effect_catalogue_markdown,
)

DOC = Path(__file__).resolve().parents[3] / "docs" / "static_analysis.md"


def _generated_block(marker: str) -> str:
    text = DOC.read_text()
    begin, end = f"<!-- {marker}:begin", f"<!-- {marker}:end -->"
    assert begin in text and end in text, f"{marker} markers missing"
    start = text.index("\n", text.index(begin)) + 1
    return text[start : text.index(end)].strip()


def test_dt_rule_table_matches_registry():
    assert _generated_block("dt-rule-table") == dt_rule_table_markdown().strip(), (
        "docs/static_analysis.md DT rule table is stale; regenerate the "
        "block between the dt-rule-table markers with "
        "repro.analysis.sanitizer.dt_rule_table_markdown()"
    )


def test_effect_catalogue_matches_spec():
    assert _generated_block("effect-catalogue") == effect_catalogue_markdown().strip(), (
        "docs/static_analysis.md effect catalogue is stale; regenerate the "
        "block between the effect-catalogue markers with "
        "repro.analysis.sanitizer.effect_catalogue_markdown()"
    )


def test_every_dt_rule_documented_exactly_once():
    table = _generated_block("dt-rule-table")
    for rule_id in DT_REGISTRY:
        assert len(re.findall(rf"\| {rule_id} \|", table)) == 1


def test_doc_mentions_sanitizer_surfaces():
    text = DOC.read_text()
    for needle in (
        "repro audit",
        "audit_paths",
        "repro: allow[",
    ):
        assert needle in text, f"docs/static_analysis.md lost {needle!r}"
