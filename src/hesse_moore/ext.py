"""Graded self-extension spaces of the rank-1 Ulrich module, as exact
linear algebra over F_p.

The degree-m extension space is the quotient

    {C in Mat_3(S_{m+1}) : tr(B*C) = 0 mod f}
    ---------------------------------------------
    {U*A - A*V : U, V in Mat_3(S_m)}

computed coefficientwise: matrices of forms are vectorized over the
basis (entry row-major, monomials graded-lex) as rows of int residues,
solution spaces come from null spaces, homotopy spaces from column
spans, and subspace comparisons from canonical reduced echelon forms,
all through the int kernel of the linalg module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .field import FieldElement, one as f_one
from .hesse import extension_representative
from .moore import FormMatrix, coordinate_vars, moore_scalar
from .poly import HomForm, divide, monomials
from .ulrich import MatrixFactorization, divergence, moore_factorization, trace_criterion


@dataclass
class ExtSpace:
    """Solution/homotopy bases and the quotient dimension at shift m."""

    m: int
    solution_basis: list[FormMatrix]
    homotopy_basis: list[FormMatrix]
    quotient_dimension: int
    representatives: list[FormMatrix]


def vectorize(mat: FormMatrix, degree: int) -> list[int]:
    """Coordinates of a 3x3 matrix of degree-d forms as int residues:
    entries row-major, monomials graded-lex."""
    monos = monomials(degree)
    out = []
    for row in mat.entries:
        for entry in row:
            values = {e: c.value for e, c in entry.coeffs.items()}
            out += [values.get(e, 0) for e in monos]
    return out


def _unvectorize(vec: list[int], degree: int, p: int) -> FormMatrix:
    monos = monomials(degree)
    k = len(monos)
    return FormMatrix(
        [
            [
                HomForm(
                    degree,
                    p,
                    {e: FieldElement(v, p) for e, v in zip(monos, vec[(3 * i + j) * k :]) if v},
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
    )


def unit_products(A: FormMatrix, degree: int, sign: int, on_left: bool) -> list[list[int]]:
    """Coordinates of sign * E_rc*mu @ A (on_left) or sign * A @ E_rc*mu,
    for r, c row-major and mu over the degree-d monomials, as int rows.

    E_rc*mu @ A is row c of A times mu placed in row r, and A @ E_rc*mu
    is column r of A times mu placed in column c: shifted coefficients
    of A, with no form products."""
    out_monos = monomials(degree + A.entries[0][0].degree)
    k = len(out_monos)
    index = {e: n for n, e in enumerate(out_monos)}
    rows = []
    for r in range(3):
        for c in range(3):
            for mu in monomials(degree):
                v = [0] * (9 * k)
                for t in range(3):
                    # product entry (i, j) gets mu * A[a][b]
                    i, j, a, b = (r, t, c, t) if on_left else (t, c, t, r)
                    for e, coef in A.entries[a][b].coeffs.items():
                        shifted = (e[0] + mu[0], e[1] + mu[1], e[2] + mu[2])
                        v[(3 * i + j) * k + index[shifted]] = sign * coef.value
                rows.append(v)
    return rows


def _solution_vectors(fac: MatrixFactorization, m: int) -> list[list[int]]:
    """Null space of the trace condition on Mat_3(S_{m+1})."""
    p = fac.f.p
    monos = monomials(m + 1)
    if not monos:
        return []
    # tr(B * E_rc * mu) = B[c][r] * mu; constraints are the coefficients of
    # its remainder mod f over the degree-(m+3) monomials
    target = [e for e in monomials(m + 3) if e[0] < 3]
    columns = []
    for r in range(3):
        for c in range(3):
            bcr = fac.B.entries[c][r]
            for mono in monos:
                _, rem = divide(bcr * HomForm.monomial(f_one(p), mono), fac.f.form)
                values = {e: c.value for e, c in rem.coeffs.items()}
                columns.append([values.get(e, 0) for e in target])
    return linalg.nullspace_mod([list(row) for row in zip(*columns)], p)


def _homotopy_vectors(fac: MatrixFactorization, m: int) -> list[list[int]]:
    """Reduced basis of the span of {vec(U*A - A*V)} for U, V in Mat_3(S_m)."""
    if m < 0:
        return []
    gens = unit_products(fac.A, m, 1, on_left=True)
    gens += unit_products(fac.A, m, -1, on_left=False)
    return gens[: len(linalg.rref_mod(gens, fac.f.p))]


def ext_space(a, m: int) -> ExtSpace:
    """The extension space at shift m for the Moore factorization at a."""
    fac = moore_factorization(a)
    p = fac.f.p
    sols = _solution_vectors(fac, m)
    homs = _homotopy_vectors(fac, m)
    # representatives: taken greedily, a solution vector is one when it is
    # outside the span of the homotopies and the solutions before it, that
    # is when its column is a pivot column of the matrix with columns
    # [homotopies; solutions]
    joined = [list(col) for col in zip(*(homs + sols))]
    pivots = linalg.rref_mod(joined, p)
    reps = [sols[c - len(homs)] for c in pivots if c >= len(homs)]
    return ExtSpace(
        m=m,
        solution_basis=[_unvectorize(v, m + 1, p) for v in sols],
        homotopy_basis=[_unvectorize(v, m + 1, p) for v in homs],
        quotient_dimension=len(pivots) - len(homs),
        representatives=[_unvectorize(v, m + 1, p) for v in reps],
    )


def moore_span_basis(a) -> list[FormMatrix]:
    """The constant Moore matrices M_{b,e_i} at the extension
    representative b of -2*a."""
    a = tuple(a)
    p = a[0].p
    b = [c.value for c in extension_representative(a)]
    basis = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        basis.append(FormMatrix.from_scalars(moore_scalar(b, e), p))
    return basis


def verify_moore_span(a) -> bool:
    """The m = -1 solution space equals span{M_{b,e0}, M_{b,e1}, M_{b,e2}}
    inside the 9-dimensional space of constant matrices."""
    p = a[0].p
    space = ext_space(a, -1)
    sols = [vectorize(s, 0) for s in space.solution_basis]
    span = [vectorize(s, 0) for s in moore_span_basis(a)]
    return linalg.rank_mod(span, p) == 3 and linalg.same_span_mod(sols, span, p)


class RepresentationError(ValueError):
    """No Moore-form representative exists for the given solution."""


def moore_representative(a, C: FormMatrix):
    """Solve C = M_{b,y} + U*A - A*V for y (linear forms) and constant
    U, V (rows of int residues); existence is the content of the
    divergence theorem."""
    a = tuple(a)
    fac = moore_factorization(a)
    p = fac.f.p
    x = coordinate_vars(p)
    # y unknowns: y_i = sum_k y_ik x_k contributes M_{b,e_i} * x_k; then
    # the U and V unknowns (constant matrices)
    basis_m = moore_span_basis(a)
    columns = [vectorize(basis_m[i].scale_form(x[k]), 1) for i in range(3) for k in range(3)]
    columns += unit_products(fac.A, 0, 1, on_left=True)
    columns += unit_products(fac.A, 0, -1, on_left=False)
    system = [list(row) for row in zip(*columns)]
    rhs = vectorize(C, 1)
    sol = linalg.solve_mod(system, rhs, p)
    if sol is None:
        residual = _residual_norm(system, rhs, p)
        raise RepresentationError(
            f"no Moore representative: inconsistent system (residual rank defect {residual})"
        )
    y = []
    for i in range(3):
        coeffs = {}
        for k in range(3):
            c = sol[3 * i + k]
            if c:
                exps = tuple(1 if t == k else 0 for t in range(3))
                coeffs[exps] = FieldElement(c, p)
        y.append(HomForm(1, p, coeffs))
    U = [sol[9 + 3 * r : 12 + 3 * r] for r in range(3)]
    V = [sol[18 + 3 * r : 21 + 3 * r] for r in range(3)]
    return tuple(y), U, V


def _residual_norm(system, rhs, p) -> int:
    columns = [list(col) for col in zip(*system)]
    return len(linalg.rref_mod(columns + [rhs], p)) - len(linalg.rref_mod(columns, p))


def divergence_class(a, C: FormMatrix) -> FieldElement:
    """The divergence of the Moore representative of C; zero exactly on
    the homotopy subspace."""
    if not trace_criterion(moore_factorization(a), C):
        raise RepresentationError(
            "C is not in the m = 0 solution space: tr(B*C) != 0 mod f"
        )
    y, _, _ = moore_representative(a, C)
    return divergence(y)
