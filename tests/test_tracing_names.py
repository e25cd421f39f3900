"""Every name the benchmark tracer patches must exist in apnforge.

perfbench/tracing.py wraps listed functions and methods by name, so deleting
or renaming one of them breaks ``perfbench/run.py --trace 1``.  The tracer is
stdlib-only; it is compiled from its source here, without writing bytecode
next to it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_spanned_functions_exist(tracing):
    for layer, names in tracing.SPANNED_FUNCTIONS.items():
        module = importlib.import_module(f"apnforge.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"apnforge.{layer}.{name}"


def test_spanned_methods_exist(tracing):
    for layer, cls_name, method in tracing.SPANNED_METHODS:
        cls = getattr(importlib.import_module(f"apnforge.{layer}"), cls_name, None)
        assert callable(getattr(cls, method, None)), f"apnforge.{layer}.{cls_name}.{method}"


def test_counted_field_methods_exist(tracing):
    from apnforge.field import FieldCtx

    for method in tracing.COUNTED_FIELD_METHODS:
        assert callable(getattr(FieldCtx, method, None)), f"FieldCtx.{method}"
