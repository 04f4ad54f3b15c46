"""Lint-style audit: no dataclass shares a mutable default between instances.

A shared mutable default is the classic Python aliasing bug: one instance
mutates state that silently belongs to every instance.  ``dataclasses``
rejects plain ``list``/``dict``/``set`` defaults at class-creation time,
but NOT mutable values smuggled in via ``field(default=...)`` or mutable
types it does not recognise (``np.ndarray``, user classes).  This test
walks every module under :mod:`repro` and enforces isolation mechanically
so a regression cannot land unnoticed.
"""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import repro

#: Types whose sharing across instances is an aliasing hazard.
_MUTABLE_TYPES = (list, dict, set, bytearray, np.ndarray)


def _walk_dataclasses():
    """Every dataclass defined in the repro package, with its module."""
    seen = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == info.name
                and obj not in seen
            ):
                seen.add(obj)
                yield obj


ALL_DATACLASSES = sorted(_walk_dataclasses(), key=lambda c: f"{c.__module__}.{c.__qualname__}")


def _no_arg_constructible(cls):
    try:
        cls()
    except Exception:
        return False
    return True


#: The dataclasses the per-instance isolation check can build with no
#: arguments, decided at collection so the check never skips.
NO_ARG_DATACLASSES = [c for c in ALL_DATACLASSES if _no_arg_constructible(c)]


def _dataclass_id(cls):
    return f"{cls.__module__}.{cls.__qualname__}"


def test_the_walk_finds_the_known_config_classes():
    names = {c.__qualname__ for c in ALL_DATACLASSES}
    # Canary: if the walk silently broke, these would vanish and every
    # other test here would pass vacuously.
    assert {"TableISettings", "ResilienceSettings", "FaultSpec", "Shard"} <= names
    assert NO_ARG_DATACLASSES, "no dataclass is no-arg constructible"


@pytest.mark.parametrize("cls", ALL_DATACLASSES, ids=_dataclass_id)
def test_no_directly_mutable_field_default(cls):
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert not isinstance(f.default, _MUTABLE_TYPES), (
                f"{cls.__qualname__}.{f.name} has a mutable default "
                f"({type(f.default).__name__}) shared by every instance; "
                f"use field(default_factory=...)"
            )


@pytest.mark.parametrize("cls", NO_ARG_DATACLASSES, ids=_dataclass_id)
def test_factory_fields_are_isolated_per_instance(cls):
    """Two no-arg instances must not alias any mutable field value."""
    a, b = cls(), cls()
    for f in dataclasses.fields(cls):
        va, vb = getattr(a, f.name, None), getattr(b, f.name, None)
        if isinstance(va, _MUTABLE_TYPES):
            assert va is not vb, (
                f"{cls.__qualname__}.{f.name}: both instances hold the "
                f"same {type(va).__name__} object — mutation on one leaks "
                f"into the other"
            )
