"""Static checks of the int core.  The FieldElement edge: outside
field.py, the package reads a FieldElement's residue (``.value``) only
where the CLI prints a FieldElement result and where a public
constructor takes a FieldElement argument; everything else computes on
int residues.  The one inverse idiom: every modular inverse is the
built-in pow(x, -1, p), never the Fermat power pow(x, p - 2, p)."""

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


def fermat_inverses(source: str) -> list[int]:
    """The lines of the three-argument ``pow`` calls whose exponent is
    their modulus minus 2."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) == 3
        and isinstance(exp := node.args[1], ast.BinOp)
        and isinstance(exp.op, ast.Sub)
        and isinstance(exp.right, ast.Constant)
        and exp.right.value == 2
        and ast.dump(exp.left) == ast.dump(node.args[2])
    ]


def test_no_fermat_inverse_in_the_package():
    found = {
        path.stem: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := fermat_inverses(path.read_text()))
    }
    assert found == {}


def test_checker_flags_fermat_inverses():
    source = "\n".join(
        [
            "a = pow(x, p - 2, p)",
            "b = pow(self.value, self.p - 2, self.p) * pow(y, q - 2, q)",
            "c = pow(x, -1, p) + pow(x, p - 1, p) + pow(x, 3, p)",
            "d = pow(x, q - 2, p) + pow(x, p - 3, p) + pow(x, p + 2, p)",
            "e = pow(x, p - 2) + math.pow(x, p - 2, p)",
        ]
    )
    assert fermat_inverses(source) == [1, 2, 2]
