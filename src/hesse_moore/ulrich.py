"""Matrix factorizations of the Hesse cubic and the rank-2 Ulrich blocks.

The rank-1 factorization is the Moore matrix A together with its
adjugate, scaled so that A*B = f*I exactly (the raw product is
a0*a1*a2*f*I).  Extension data (C, D) satisfy A*D + C*B = 0 = D*A + B*C;
one solver, _partner, gives D = -B*C*B / f and C = -A*D*A / f, and
existence is decided by the trace criterion tr(B*C) = 0 mod f.  One
certified entrywise quotient by f, off the product's flat row, serves
all four of these divisions.  Each certificate (A*B = B*A = f*I, q*f,
Y*q = M*X, N*Y + X*M = 0) compares reduced rows and builds no form.

The f of a MatrixFactorization is the HesseCurve from curve_through,
the one check that a0*a1*a2 != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldElement, triple_residues
from .hesse import HesseCurve, curve_through, extension_representative
from .moore import (
    FormMatrix,
    ProjectivePoint,
    coordinate_vars,
    is_scalar_product,
    moore,
    moore_adjugate,
    product_row,
)
from .poly import HomForm, divide, divide_row, monomial_index, product_terms


class FactorizationError(ValueError):
    """No extension datum exists for the given matrix."""


@dataclass(frozen=True)
class MatrixFactorization:
    """A certified pair (A, B) with A*B = B*A = f*I; f is the curve, and
    f.form the cubic."""

    A: FormMatrix
    B: FormMatrix
    f: HesseCurve

    def __post_init__(self):
        for pair in ((self.A, self.B), (self.B, self.A)):
            if not is_scalar_product([pair], self.f.form):
                raise ValueError("A*B = B*A = f*I fails; not a matrix factorization")


def _certified(A: FormMatrix, B: FormMatrix, f: HesseCurve) -> MatrixFactorization:
    """MatrixFactorization(A, B, f) of matrices built here: a failed
    certificate is an internal error, not a bad input."""
    try:
        return MatrixFactorization(A, B, f)
    except ValueError as exc:
        raise AssertionError(str(exc)) from exc


def moore_factorization(a) -> MatrixFactorization:
    """The rank-1 factorization (M_{a,x}, unit * adjugate) of f_lambda.

    The adjugate is scaled by (a0*a1*a2)^{-1} so the product is exactly
    f*I rather than det(M)*I = a0*a1*a2*f*I.
    """
    a = tuple(a)
    v, p = triple_residues(a)
    curve = curve_through(ProjectivePoint.from_ints(v, p))  # a0*a1*a2 != 0, lambda smooth
    prod = v[0] * v[1] * v[2] % p
    B = moore_adjugate(a).scale(FieldElement(pow(prod, -1, p), p))
    return _certified(moore(a), B, curve)


def _quotient(pairs, f: HomForm) -> FormMatrix | None:
    """The entrywise exact quotient of sum(X @ Y for X, Y in pairs) by
    f, divided straight off the product's row, or None as soon as an
    entry is not divisible by f."""
    row = product_row(pairs)
    X, Y = pairs[0]
    degree, p = X.degree + Y.degree, f.p
    size = len(monomial_index(degree))
    quotient = []
    for start in range(0, len(row), size):
        q, r = divide_row(row[start : start + size], degree, f)
        if any(map(p.__rmod__, r)):
            return None
        quotient += q
    Q = FormMatrix.from_row(X.n, degree - f.degree, p, quotient)
    # certified: multiply back, every cell of Q times f against its entry
    back = product_terms([([[e] for row in Q.entries for e in row], [[f]])])
    if list(map(p.__rmod__, back)) != row:
        raise AssertionError("division certificate failed")
    return Q


def _partner(X: FormMatrix, Y: FormMatrix, M: FormMatrix, f: HomForm, missing: str):
    """N = -X*M*X / f off X*(M*X), X's sparse entries the outer grid,
    certified by Y*q = M*X (q = -N) and N*Y + X*M = 0, each a comparison
    of reduced product rows; FactorizationError(missing) when f does not
    divide X*M*X."""
    MX_row = product_row([(M, X)])
    MX = FormMatrix.from_row(X.n, X.degree + M.degree, X.p, MX_row)
    q = _quotient([(X, MX)], f)
    if q is None:
        raise FactorizationError(missing)
    N = -q
    if product_row([(Y, q)]) != MX_row or any(product_row([(N, Y), (X, M)])):
        raise AssertionError("partner does not satisfy the extension identities")
    return N


def partner_D(fac: MatrixFactorization, C: FormMatrix) -> FormMatrix:
    """The unique D with f*D = -B*C*B; verifies A*D + C*B = 0 = D*A + B*C."""
    missing = "no extension datum for this C: f does not divide B*C*B"
    return _partner(fac.B, fac.A, C, fac.f.form, missing)


def recover_C(fac: MatrixFactorization, D: FormMatrix) -> FormMatrix:
    """The unique C with f*C = -A*D*A (inverse of partner_D); C has the
    degree of D minus 1, so a constant D has none."""
    if D.degree < 1:
        raise FactorizationError(
            f"no C for this D: D has degree {D.degree}, so C would have degree {D.degree - 1}"
        )
    return _partner(fac.A, fac.B, D, fac.f.form, "no C for this D: f does not divide A*D*A")


def trace_criterion(fac: MatrixFactorization, C: FormMatrix) -> bool:
    """tr(B*C) = 0 mod f, equivalent to f | B*C*B entrywise."""
    _, r = divide(fac.B.product_trace(C), fac.f.form)
    return r.is_zero()


def bcb_divisible(fac: MatrixFactorization, C: FormMatrix) -> bool:
    """Entrywise divisibility of B*C*B by f (the partner-existence test)."""
    return _quotient([(fac.B @ C, fac.B)], fac.f.form) is not None


def bcb_congruence(fac: MatrixFactorization, C: FormMatrix) -> bool:
    """B*C*B = tr(B*C) * B mod f, entry by entry."""
    BC = fac.B @ C
    identity = FormMatrix.from_scalars([[int(i == j) for j in range(3)] for i in range(3)], fac.f.p)
    minus_trace = identity.scale_form(-BC.trace())
    return _quotient([(BC, fac.B), (minus_trace, fac.B)], fac.f.form) is not None


def divergence(y) -> int:
    """div of M_{b,y} for a vector y of three linear forms:
    d y0/d x0 + d y1/d x1 + d y2/d x2, as a residue."""
    y = tuple(y)
    if len(y) != 3:
        raise ValueError(f"divergence expects three linear forms, got {len(y)}")
    p = y[0].p
    total = 0
    for i, form in enumerate(y):
        if form.degree != 1:
            raise ValueError("divergence expects degree-1 forms")
        if form.p != p:
            raise ValueError("modulus mismatch")
        total += form.coefficient(tuple(int(k == i) for k in range(3)))
    return total % p


@dataclass(frozen=True)
class Rank2Ulrich:
    """The rank-2 block factorization ((A C; 0 A), (B D; 0 B)) of f, an
    extension of the rank-1 factorization ``rank1`` = (A, B) by itself.
    ``divergence`` is div(M_{b,x}) = 3 by construction (C = M_{b,x}); the
    non-split witness is ext.divergence_class of C, which verify checks."""

    factorization: MatrixFactorization
    C: FormMatrix
    D: FormMatrix
    extension_triple: tuple
    divergence: FieldElement
    rank1: MatrixFactorization


def _block(upper_left: FormMatrix, upper_right: FormMatrix) -> FormMatrix:
    # the lower-left zero forms carry the degree of the blocks beside them
    zero = HomForm.zero(upper_left.degree, upper_left.p)
    top = [left + right for left, right in zip(upper_left.entries, upper_right.entries)]
    return FormMatrix(top + [[zero] * upper_left.n + left for left in upper_left.entries])


def rank2_ulrich(a) -> Rank2Ulrich:
    """The rank-2 block factorization at a: C is the Moore matrix of
    the extension representative b of -2*a (the iota twist of the
    doubling representative -- the untwisted triple fails the trace
    criterion), D its partner, and div(M_{b,x}) = 3 witnesses that the
    extension is non-split."""
    fac = moore_factorization(a)
    v, p = triple_residues(a)
    b = tuple(FieldElement(x, p) for x in extension_representative(v))
    if not any(b):
        raise AssertionError("extension representative vanished on a smooth curve")
    C = moore(b)
    D = partner_D(fac, C)
    A2 = _block(fac.A, C)
    B2 = _block(fac.B, D)
    block_fac = _certified(A2, B2, fac.f)
    return Rank2Ulrich(block_fac, C, D, b, FieldElement(divergence(coordinate_vars(p)), p), fac)
