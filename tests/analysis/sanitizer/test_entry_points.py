"""Every hand-maintained function spec of the allowance policy must resolve.

The function-level ``ALLOWANCES`` are maintained by hand; a rename
anywhere in the library would otherwise leave a stale permission
behind.  Each spec must import and resolve to a real callable.
(``test_self_audit.py::test_every_allowance_suppresses_something``
separately fails on an allowance that no longer matches an occurrence.)
"""

from __future__ import annotations

import importlib

import pytest

from repro.analysis.sanitizer.effects import ALLOWANCES, EFFECT_MODULE_STATE

#: Module-state allowances name a table, not a function; allowances
#: without a qualname cover a whole module.
_FUNCTION_SPECS = sorted(
    f"{allow.module}:{allow.qualname}"
    for allow in ALLOWANCES
    if allow.qualname is not None and allow.effect != EFFECT_MODULE_STATE
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
