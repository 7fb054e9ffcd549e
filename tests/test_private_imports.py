"""Static check of the package layering: no module of hesse_moore imports
or reads as an attribute a private (``_name``) name of another module of
the package.  A helper that two modules share is public in the module
that owns it."""

import ast
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "hesse_moore"
PACKAGE = PACKAGE_DIR.name
MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imported_from(node: ast.ImportFrom) -> str | None:
    """The dotted name inside the package that a ``from ... import``
    reads from ('' for the package itself), or None outside it."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (node.module + ".").startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1 :]
    return None


def cross_module_private_uses(source: str, this: str) -> list[str]:
    """Each private name of another package module that the source of
    the module `this` imports or reads as an attribute, as 'line: name'."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    aliases = {}  # local name -> package module it is bound to
    found = []
    for node in imports:
        module = _imported_from(node)
        for alias in node.names:
            if module == "" and alias.name in MODULES:
                aliases[alias.asname or alias.name] = alias.name
            elif module in MODULES and module != this and _private(alias.name):
                found.append(f"{node.lineno}: {module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and aliases.get(node.value.id, this) != this
            and _private(node.attr)
        ):
            found.append(f"{node.lineno}: {aliases[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_cross_module_private_names(name):
    source = (PACKAGE_DIR / f"{name}.py").read_text()
    assert cross_module_private_uses(source, name) == []


def test_checker_flags_private_reach():
    source = "\n".join(
        [
            "from . import ext as ext_mod, linalg",
            "from .moore import _as_triple, moore",
            "from hesse_moore.poly import _helper",
            "from hesse_moore import field",
            "x = ext_mod._unvectorize(v, 1, p)",
            "y = linalg._elements(m, p) + linalg.rref(m)",
            "z = field._private + self._own + ext_mod.__name__",
        ]
    )
    assert sorted(cross_module_private_uses(source, "verify")) == [
        "2: moore._as_triple",
        "3: poly._helper",
        "5: ext._unvectorize",
        "6: linalg._elements",
        "7: field._private",
    ]
    # a module's own private names are its business
    assert cross_module_private_uses("from .moore import _as_triple", "moore") == []
