"""The methods bench/tracer.py wraps exist where it looks for them, and
the package names the benchmark reads resolve.

The tracer reads each pinned method out of ``vars(cls)`` of its layer's
class, so a moved or deleted method fails only a traced bench run, with
a KeyError.  This test reads the two tables from the tracer's source,
and the submodules read off the package from the benchmark's source,
without importing or changing the benchmark.
"""

import ast
import importlib
import textwrap
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SUBMODULES = {path.stem for path in (ROOT / "src" / "hesse_moore").glob("*.py")}


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


def bench_submodule_reads() -> set[str]:
    """The package submodules the benchmark reads as attributes of the
    imported package, ``hm.<module>`` or ``self.hm.<module>``."""
    reads = set()
    for path in TRACER.parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in SUBMODULES:
                owner = node.value
                if getattr(owner, "id", None) == "hm" or getattr(owner, "attr", None) == "hm":
                    reads.add(node.attr)
    return reads


def test_the_names_the_benchmark_reads_resolve_from_a_fresh_import(fresh_python):
    reads = bench_submodule_reads()
    assert {"ulrich", "ext", "heisenberg"} <= reads
    # moore is not among them: hesse_moore.moore is the function
    assert reads <= {"field", "poly", "linalg", "hesse", "heisenberg", "ulrich", "ext"}
    probe = textwrap.dedent(f"""
        import importlib
        import json
        import sys
        import types

        import hesse_moore as hm

        out = {{
            "modules": [m for m in {sorted(reads)!r}
                        if getattr(hm, m) is not sys.modules["hesse_moore." + m]],
            "names": len(hm.__all__),
            "not_the_definition": [
                n for n in hm.__all__
                if getattr(hm, n) is not getattr(sys.modules[getattr(hm, n).__module__], n)
            ],
            "not_in_dir": sorted(set(hm.__all__) - set(dir(hm))),
            "moore_is_the_function": isinstance(hm.moore, types.FunctionType),
        }}
        # the tracer spans verify.ALL_CHECKS only if cli loaded verify
        importlib.import_module("hesse_moore.cli")
        out["cli_loads_verify"] = "hesse_moore.verify" in sys.modules
        print(json.dumps(out))
    """)
    assert fresh_python(probe) == {
        "modules": [],
        "names": 44,
        "not_the_definition": [],
        "not_in_dir": [],
        "moore_is_the_function": True,
        "cli_loads_verify": True,
    }
