"""The methods bench/tracer.py wraps exist where it looks for them.

The tracer reads each pinned method out of ``vars(cls)`` of its layer's
class, so a moved or deleted method fails only a traced bench run, with
a KeyError.  This test reads the two tables from the tracer's source,
without importing or changing the benchmark.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def pinned_tables() -> dict[str, dict]:
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED_METHODS", "COUNTED_METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


PINS = [
    (table, layer, cls_name, methods)
    for table, pins in sorted(pinned_tables().items())
    for (layer, cls_name), methods in pins.items()
]


def test_both_tables_are_read():
    assert {table for table, *_ in PINS} == {"SPANNED_METHODS", "COUNTED_METHODS"}
    assert ("SPANNED_METHODS", "poly", "HomForm", ("evaluate", "__mul__")) in PINS
    assert ("SPANNED_METHODS", "moore", "FormMatrix", ("__matmul__",)) in PINS


@pytest.mark.parametrize(
    "table, layer, cls_name, methods", PINS, ids=[f"{t}-{l}.{c}" for t, l, c, _ in PINS]
)
def test_pinned_methods_are_in_their_class(table, layer, cls_name, methods):
    cls = vars(importlib.import_module(f"hesse_moore.{layer}"))[cls_name]
    assert isinstance(cls, type)
    # None pins every public method, which any class satisfies
    for name in methods or ():
        assert isinstance(vars(cls).get(name), types.FunctionType), f"{cls_name}.{name}"
