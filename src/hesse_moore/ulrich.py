"""Matrix factorizations of the Hesse cubic and the rank-2 Ulrich blocks.

The rank-1 factorization is the Moore matrix A together with its
adjugate, scaled so that A*B = f*I exactly (the raw product is
a0*a1*a2*f*I).  Extension data (C, D) satisfy A*D + C*B = 0 = D*A + B*C;
the partner D is recovered from C by exact division of B*C*B by f, and
existence is decided by the trace criterion tr(B*C) = 0 mod f.

The f of a MatrixFactorization is the HesseCurve from curve_through;
the products equal its form f.form times the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldElement
from .hesse import HesseCurve, curve_through, extension_representative
from .moore import FormMatrix, ProjectivePoint, coordinate_vars, moore, moore_adjugate
from .poly import HomForm, divide


class FactorizationError(ValueError):
    """No extension datum exists for the given matrix."""


def _identity_form(n: int, f: HomForm) -> FormMatrix:
    zero = HomForm.zero(f.degree, f.p)
    return FormMatrix([[f if i == j else zero for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class MatrixFactorization:
    """A certified pair (A, B) with A*B = B*A = f*I; f is the curve, and
    f.form the cubic."""

    size: int
    A: FormMatrix
    B: FormMatrix
    f: HesseCurve

    def __post_init__(self):
        fid = _identity_form(self.size, self.f.form)
        if self.A @ self.B != fid or self.B @ self.A != fid:
            raise ValueError("A*B = B*A = f*I fails; not a matrix factorization")


def moore_factorization(a) -> MatrixFactorization:
    """The rank-1 factorization (M_{a,x}, unit * adjugate) of f_lambda.

    The adjugate is scaled by (a0*a1*a2)^{-1} so the product is exactly
    f*I rather than det(M)*I = a0*a1*a2*f*I.
    """
    a = tuple(a)
    prod = a[0] * a[1] * a[2]
    if not prod:
        raise ValueError("moore factorization needs a0*a1*a2 != 0")
    curve = curve_through(ProjectivePoint(a))  # rejects singular lambda
    A = moore(a)
    B = moore_adjugate(a).scale(prod.inv())
    return MatrixFactorization(3, A, B, curve)


def _divide_matrix(m: FormMatrix, f: HomForm) -> FormMatrix:
    """Entrywise exact quotient m / f; raises FactorizationError when any
    entry is not divisible."""
    out = []
    for row in m.entries:
        qrow = []
        for entry in row:
            q, r = divide(entry, f)
            if not r.is_zero():
                raise FactorizationError("no extension datum for this C: f does not divide B*C*B")
            # certified: multiply back
            if q * f != entry:
                raise AssertionError("division certificate failed")
            qrow.append(q)
        out.append(qrow)
    return FormMatrix(out)


def partner_D(fac: MatrixFactorization, C: FormMatrix) -> FormMatrix:
    """The unique D with f*D = -B*C*B; verifies A*D + C*B = 0 = D*A + B*C."""
    bcb = fac.B @ C @ fac.B
    D = -_divide_matrix(bcb, fac.f.form)
    if not (fac.A @ D + C @ fac.B).is_zero() or not (D @ fac.A + fac.B @ C).is_zero():
        raise AssertionError("partner matrix does not satisfy the extension identities")
    return D


def recover_C(fac: MatrixFactorization, D: FormMatrix) -> FormMatrix:
    """The unique C with f*C = -A*D*A (inverse of partner_D)."""
    ada = fac.A @ D @ fac.A
    try:
        C = -_divide_matrix(ada, fac.f.form)
    except FactorizationError:
        raise FactorizationError("no C for this D: f does not divide A*D*A")
    if not (fac.A @ D + C @ fac.B).is_zero() or not (D @ fac.A + fac.B @ C).is_zero():
        raise AssertionError("recovered matrix does not satisfy the extension identities")
    return C


def trace_criterion(fac: MatrixFactorization, C: FormMatrix) -> bool:
    """tr(B*C) = 0 mod f, equivalent to f | B*C*B entrywise."""
    _, r = divide((fac.B @ C).trace(), fac.f.form)
    return r.is_zero()


def bcb_divisible(fac: MatrixFactorization, C: FormMatrix) -> bool:
    """Entrywise divisibility of B*C*B by f (the partner-existence test)."""
    bcb = fac.B @ C @ fac.B
    return all(
        divide(entry, fac.f.form)[1].is_zero()
        for row in bcb.entries
        for entry in row
    )


def bcb_congruence(fac: MatrixFactorization, C: FormMatrix) -> bool:
    """B*C*B = tr(B*C) * B mod f, entry by entry."""
    diff = fac.B @ C @ fac.B - fac.B.scale_form((fac.B @ C).trace())
    return all(
        divide(entry, fac.f.form)[1].is_zero()
        for row in diff.entries
        for entry in row
    )


def divergence(y) -> FieldElement:
    """div of M_{b,y} for a vector y of three linear forms:
    d y0/d x0 + d y1/d x1 + d y2/d x2."""
    y = tuple(y)
    total = None
    for i, form in enumerate(y):
        if form.degree != 1:
            raise ValueError("divergence expects degree-1 forms")
        exps = tuple(1 if k == i else 0 for k in range(3))
        c = form.coefficient(exps)
        total = c if total is None else total + c
    return total


@dataclass(frozen=True)
class Rank2Ulrich:
    """The rank-2 block factorization ((A C; 0 A), (B D; 0 B)) of f."""

    factorization: MatrixFactorization
    base: MatrixFactorization
    C: FormMatrix
    D: FormMatrix
    extension_triple: tuple
    divergence: FieldElement


def _block(upper_left: FormMatrix, upper_right: FormMatrix) -> FormMatrix:
    n = upper_left.n
    # degree profile differs per block; zero forms carry the degree of the
    # entry they replace in the lower-left block
    deg = upper_left.entries[0][0].degree
    p = upper_left.p
    zero = HomForm.zero(deg, p)
    out = []
    for i in range(n):
        out.append(list(upper_left.entries[i]) + list(upper_right.entries[i]))
    for i in range(n):
        out.append([zero] * n + list(upper_left.entries[i]))
    return FormMatrix(out)


def rank2_ulrich(a) -> Rank2Ulrich:
    """The rank-2 block factorization at a: C is the Moore matrix of
    the extension representative b of -2*a (the iota twist of the
    doubling representative -- the untwisted triple fails the trace
    criterion), D its partner, and div(M_{b,x}) = 3 witnesses that the
    extension is non-split."""
    fac = moore_factorization(a)
    b = extension_representative(tuple(a))
    if all(c.value == 0 for c in b):
        raise AssertionError("extension representative vanished on a smooth curve")
    C = moore(b)
    D = partner_D(fac, C)
    A2 = _block(fac.A, C)
    B2 = _block(fac.B, D)
    block_fac = MatrixFactorization(6, A2, B2, fac.f)
    div = divergence(coordinate_vars(fac.f.p))
    return Rank2Ulrich(block_fac, fac, C, D, b, div)
