"""Exact-arithmetic Moore-matrix representations of smooth Hesse cubics
over prime fields F_p (p > 3, p = 1 mod 6): the determinantal group
law, Heisenberg equivalence invariants, Schroedinger characters, and
rank-1/rank-2 Ulrich matrix factorizations with their graded extension
spaces.

``import hesse_moore`` loads only the curve layer: field, poly, moore
and hesse.  linalg and the factorization layer (heisenberg, ulrich and
ext) load on first use: reading one of their names, or the submodule
itself, imports the submodule that defines it (PEP 562).  Those names
are read from their submodule on every access and never copied here,
so a name rebound there is the name seen here."""

import importlib

from .field import FieldElement, primitive_root_of_unity, validate_modulus
from .poly import HomForm, divide, monomials
from .moore import (
    FormMatrix,
    KernelError,
    ProjectivePoint,
    moore,
    moore_adjugate,
    moore_det,
    moore_scalar,
)
from .hesse import (
    HesseCurve,
    curve_through,
    doubling_representative,
    extension_representative,
    iota,
    tripling_representative,
)

# linalg and the factorization layer: each submodule and its exported names
_LAZY = {
    "linalg": (),
    "heisenberg": (
        "ClassFunction",
        "HeisenbergElement",
        "are_equivalent",
        "heis3_matrix",
        "hn_elements",
        "orbit",
        "schrodinger_character",
        "trace_invariants",
        "verify_restriction",
        "verify_tensor_h3",
    ),
    "ulrich": (
        "FactorizationError",
        "MatrixFactorization",
        "Rank2Ulrich",
        "bcb_congruence",
        "divergence",
        "moore_factorization",
        "partner_D",
        "rank2_ulrich",
        "recover_C",
        "trace_criterion",
    ),
    "ext": (
        "ExtSpace",
        "RepresentationError",
        "divergence_class",
        "ext_space",
        "moore_representative",
    ),
}
_DEFINED_IN = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([
    "FieldElement", "primitive_root_of_unity", "validate_modulus",
    "HomForm", "divide", "monomials",
    "FormMatrix", "KernelError", "ProjectivePoint",
    "moore", "moore_adjugate", "moore_det", "moore_scalar",
    "HesseCurve", "curve_through", "doubling_representative",
    "extension_representative", "iota", "tripling_representative",
    *_DEFINED_IN,
])


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _DEFINED_IN:
        return getattr(importlib.import_module(f"{__name__}.{_DEFINED_IN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return list(__all__)


__version__ = "0.1.0"
