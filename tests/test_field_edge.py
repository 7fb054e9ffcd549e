"""Static check of the FieldElement edge: outside field.py, the package
reads a FieldElement's residue (``.value``) only where the CLI prints a
FieldElement result and where a public constructor takes a FieldElement
argument.  Everything else computes on int residues."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "hesse_moore"

# cli: curve.lam and Rank2Ulrich.divergence; hesse: HesseCurve(lam);
# poly: HomForm.scale(c)
EXPECTED = {"cli": 2, "hesse": 1, "poly": 1}


def value_reads(source: str) -> int:
    """The number of ``.value`` attribute reads in the source."""
    return sum(
        isinstance(node, ast.Attribute) and node.attr == "value" and isinstance(node.ctx, ast.Load)
        for node in ast.walk(ast.parse(source))
    )


def test_value_reads_outside_field():
    counts = {
        path.stem: value_reads(path.read_text())
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "field"
    }
    assert {name: n for name, n in counts.items() if n} == EXPECTED


def test_counter_sees_reads_only():
    source = "x = a.value + b.c.value\nd.value = 1\nvalue = 2\nf(value, e.values)"
    assert value_reads(source) == 2
