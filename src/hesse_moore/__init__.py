"""Exact-arithmetic Moore-matrix representations of smooth Hesse cubics
over prime fields F_p (p > 3, p = 1 mod 6): the determinantal group
law, Heisenberg equivalence invariants, Schroedinger characters, and
rank-1/rank-2 Ulrich matrix factorizations with their graded extension
spaces."""

from .field import FieldElement, one, primitive_root_of_unity, validate_modulus, zero
from .poly import HomForm, divide, monomials
from .moore import (
    FormMatrix,
    KernelError,
    ProjectivePoint,
    left_kernel_point,
    moore,
    moore_adjugate,
    moore_det,
    moore_scalar,
    right_kernel_point,
)
from .hesse import (
    HesseCurve,
    curve_through,
    doubling_representative,
    extension_representative,
    iota,
    tripling_representative,
)
from .heisenberg import (
    ClassFunction,
    HeisenbergElement,
    are_equivalent,
    conjugation_identities,
    heis3_matrix,
    hn_elements,
    hn_identity,
    orbit,
    schrodinger_character,
    trace_invariants,
    verify_restriction,
    verify_tensor_h3,
)
from .ulrich import (
    FactorizationError,
    MatrixFactorization,
    Rank2Ulrich,
    bcb_congruence,
    divergence,
    moore_factorization,
    partner_D,
    rank2_ulrich,
    recover_C,
    trace_criterion,
)
from .ext import (
    ExtSpace,
    RepresentationError,
    divergence_class,
    ext_space,
    moore_representative,
    verify_moore_span,
)

__all__ = [
    "ClassFunction",
    "ExtSpace",
    "FactorizationError",
    "FieldElement",
    "FormMatrix",
    "HeisenbergElement",
    "HesseCurve",
    "HomForm",
    "KernelError",
    "MatrixFactorization",
    "ProjectivePoint",
    "Rank2Ulrich",
    "RepresentationError",
    "are_equivalent",
    "bcb_congruence",
    "conjugation_identities",
    "curve_through",
    "divergence",
    "divergence_class",
    "divide",
    "doubling_representative",
    "ext_space",
    "extension_representative",
    "heis3_matrix",
    "hn_elements",
    "hn_identity",
    "iota",
    "left_kernel_point",
    "monomials",
    "moore",
    "moore_adjugate",
    "moore_det",
    "moore_factorization",
    "moore_representative",
    "moore_scalar",
    "one",
    "orbit",
    "partner_D",
    "primitive_root_of_unity",
    "rank2_ulrich",
    "recover_C",
    "right_kernel_point",
    "schrodinger_character",
    "trace_criterion",
    "trace_invariants",
    "tripling_representative",
    "validate_modulus",
    "verify_moore_span",
    "verify_restriction",
    "verify_tensor_h3",
    "zero",
]

__version__ = "0.1.0"
