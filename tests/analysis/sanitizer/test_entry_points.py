"""Every hand-maintained function spec of the effect catalogue must resolve.

``ENTRY_POINTS`` and the function-level ``ALLOWANCES`` are maintained by
hand; a rename anywhere in the library would otherwise silently shrink
the audited surface to nothing, or leave a stale permission behind.
Each spec must import and resolve to a real callable — and the auditor's
*static* index must agree that it scanned the same thing.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.analysis.sanitizer import ENTRY_POINTS, build_module_index
from repro.analysis.sanitizer.effects import ALLOWANCES, EFFECT_MODULE_STATE

SRC = Path(__file__).resolve().parents[3] / "src" / "repro"

#: Module-state allowances name a table, not a function; allowances
#: without a qualname cover a whole module.
_FUNCTION_SPECS = sorted(
    set(ENTRY_POINTS)
    | {
        f"{allow.module}:{allow.qualname}"
        for allow in ALLOWANCES
        if allow.qualname is not None and allow.effect != EFFECT_MODULE_STATE
    }
)


def _resolve(spec: str):
    module_name, _, qualname = spec.partition(":")
    module = importlib.import_module(module_name)
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("spec", _FUNCTION_SPECS)
def test_function_spec_imports_and_resolves(spec):
    obj = _resolve(spec)
    assert callable(obj), f"{spec} resolved to non-callable {obj!r}"


def test_static_index_sees_every_catalogued_unit():
    index = build_module_index([SRC])
    for spec in _FUNCTION_SPECS:
        module_name, _, qualname = spec.partition(":")
        module = index.modules.get(module_name)
        assert module is not None, f"{module_name} not scanned"
        assert qualname in module.units, f"{spec} not in the static index"
