"""Invariants of the DT rule registry and the effect catalogue."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    ALLOWANCES,
    DT_REGISTRY,
    EFFECT_CATALOG,
    dt_rule_table,
    dt_rule_table_markdown,
    effect_catalogue_markdown,
    rule_for_effect,
)
from repro.analysis.sanitizer.rules import PRAGMA_RULE_ID


def test_rule_ids_are_stable_and_wellformed():
    assert PRAGMA_RULE_ID in DT_REGISTRY
    for rule_id, rule in DT_REGISTRY.items():
        assert rule.rule_id == rule_id
        assert rule_id.startswith("DT") and len(rule_id) == 5
        assert rule.name and rule.description


def test_rules_cover_catalogue_bijectively():
    # Every catalogued effect has exactly one policing rule, and every
    # rule except the DT000 meta-rule polices a catalogued effect.
    effects = {spec.effect for spec in EFFECT_CATALOG}
    rule_effects = [r.effect for r in DT_REGISTRY.values() if r.effect]
    assert sorted(rule_effects) == sorted(effects)
    for spec in EFFECT_CATALOG:
        assert rule_for_effect(spec.effect).effect == spec.effect


def test_rule_for_unknown_effect_raises():
    with pytest.raises(KeyError):
        rule_for_effect("no.such.effect")


def test_allowances_reference_catalogued_effects_with_reasons():
    effects = {spec.effect for spec in EFFECT_CATALOG}
    for allow in ALLOWANCES:
        assert allow.effect in effects
        assert allow.reason and len(allow.reason) > 20, (
            f"allowance for {allow.module} needs a real justification"
        )


def test_rule_table_sorted_and_complete():
    rows = dt_rule_table()
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    assert {r[0] for r in rows} == set(DT_REGISTRY)


def test_markdown_renders_every_rule_and_allowance():
    table = dt_rule_table_markdown()
    for rule_id in DT_REGISTRY:
        assert f"| {rule_id} |" in table
    catalogue = effect_catalogue_markdown()
    for spec in EFFECT_CATALOG:
        assert f"`{spec.effect}`" in catalogue
    for allow in ALLOWANCES:
        assert f"`{allow.module}`" in catalogue
