"""Graded self-extension spaces of the rank-1 Ulrich module, as exact
linear algebra over F_p.

The degree-m extension space is the quotient

    {C in Mat_3(S_{m+1}) : tr(B*C) = 0 mod f}
    ---------------------------------------------
    {U*A - A*V : U, V in Mat_3(S_m)}

computed coefficientwise: matrices of forms are their coordinate rows
of int residues (FormMatrix.row()), solution spaces come from null
spaces, homotopy spaces from column spans, and subspace comparisons from
canonical reduced echelon forms, all through the int linalg kernel.
The trace condition is linear in C, so its constraint columns are sums
of rows of one table, by position, of remainders mod f of the
degree-(m+3) monomials (poly's remainder_table), with no form products
or divisions.  The homotopies span the E*A and A*E for the unit matrices
E, which unit_products returns as a pair of row lists, none at m < 0
(it rejects any A but 3x3); these generators lie in the solution space.
Positions of products come from poly's product_index.  The
representatives, the solutions taken greedily outside the span of the
homotopies, are read off one rref_mod of the generators' coordinates in
the solution basis, by one path at every m.  An ExtSpace keeps those int
rows and builds the reduced homotopy basis only when it is read; its
quotient dimension is the number of representatives.  At m = -1 the
solutions are spanned by the M_{b,e_i}, whose int rows moore_span_basis
returns and verify checks; moore_representative places each entry of
those rows at each x_k, as unit_products places A's; divergence_class
is the divergence of the y of that representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .field import triple_residues
from .hesse import extension_representative
from .moore import FormMatrix, moore_scalar
from .poly import HomForm, monomial_index, product_index, remainder_table
from .ulrich import MatrixFactorization, divergence, moore_factorization, trace_criterion


@dataclass
class ExtSpace:
    """The solution basis, the chosen quotient representatives and the
    homotopy generators over F_p at shift m; each is the int coordinate
    row (FormMatrix.row()) of a matrix of degree-(m+1) forms.  homotopies,
    the reduced basis of the generators' span, is built on first read."""

    m: int
    solutions: list[list[int]]
    representatives: list[list[int]]
    p: int
    generators: list[list[int]]

    @cached_property
    def homotopies(self) -> list[list[int]]:
        rows = list(self.generators)
        return rows[: len(linalg.rref_mod(rows, self.p))]

    @property
    def quotient_dimension(self) -> int:
        return len(self.representatives)


def unit_products(A: FormMatrix, degree: int) -> tuple[list[list[int]], list[list[int]]]:
    """Coordinates of the E_rc*mu @ A and of the A @ E_rc*mu for a 3x3 A,
    for r, c row-major and mu over the degree-d monomials, as int rows.

    E_rc*mu @ A is row c of A times mu placed in row r, and A @ E_rc*mu
    is column r of A times mu placed in column c: shifted coefficients
    of A, with no form products."""
    if A.n != 3:
        raise ValueError(f"unit_products needs a 3x3 matrix, got {A.n}x{A.n}")
    k = len(monomial_index(degree + A.degree))
    left, right = [], []
    for r in range(3):
        for c in range(3):
            # row mu of the table places mu times each monomial of A's degree
            for shifted in product_index(degree, A.degree):
                u, v = [0] * (9 * k), [0] * (9 * k)
                for t in range(3):
                    for e, coef in A.entries[c][t].terms:
                        u[(3 * r + t) * k + shifted[e]] = coef
                    for e, coef in A.entries[t][r].terms:
                        v[(3 * t + c) * k + shifted[e]] = coef
                left.append(u)
                right.append(v)
    return left, right


def _solution_vectors(fac: MatrixFactorization, m: int) -> list[list[int]]:
    """Null space of the trace condition on Mat_3(S_{m+1})."""
    p = fac.f.p
    if m + 1 < 0:
        return []
    # tr(B * E_rc * mu) = B[c][r] * mu; constraints are the coefficients of
    # its remainder mod f over the degree-(m+3) monomials, which is linear:
    # the sum of b_e * rem(x^(e + mu)) over the terms b_e x^e of B[c][r]
    rem = remainder_table(fac.f.form, m + 3)
    shifted = product_index(fac.B.degree, m + 1)
    columns = []
    for r in range(3):
        for c in range(3):
            terms = fac.B.entries[c][r].terms
            for mu in range(len(monomial_index(m + 1))):
                col = [0] * len(rem)
                for e, b in terms:
                    for k, w in rem[shifted[e][mu]]:
                        col[k] += b * w
                columns.append(col)
    # the rows of the multiples of lm(f) are zero (no remainder has one)
    return linalg.nullspace_mod([list(row) for row in zip(*columns) if any(row)], p)


def ext_space(a, m: int) -> ExtSpace:
    """The extension space at shift m for the Moore factorization at a.
    A generator's solution coordinates are its entries at the free
    columns, each solution's last nonzero entry (nullspace_mod).  With W
    their span, dim(W + <e_1..e_k>) = k + dim(W past k), so solution k is
    a representative exactly when it is no pivot of W's columns last-first."""
    fac = moore_factorization(a)
    p = fac.f.p
    sols = _solution_vectors(fac, m)
    # the U*A - A*V span what the U*A and the A*V span
    gens = [g for side in unit_products(fac.A, m) for g in side]
    free = [len(v) - 1 - v[::-1].index(1) for v in reversed(sols)]
    pivots = linalg.rref_mod([[g[c] for c in free] for g in gens], p)
    last = len(sols) - 1
    reps = [v for k, v in enumerate(sols) if last - k not in pivots]
    return ExtSpace(m, sols, reps, p, gens)


def moore_span_basis(a) -> list[list[int]]:
    """The coordinate rows (FormMatrix.row()) of the constant Moore matrices
    M_{b,e_i} at the extension representative b of -2*a."""
    v, p = triple_residues(a)
    b = extension_representative(v)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [[c % p for row in moore_scalar(b, e) for c in row] for e in units]


class RepresentationError(ValueError):
    """No Moore-form representative exists for the given solution."""


def moore_representative(a, C: FormMatrix):
    """Solve C = M_{b,y} + U*A - A*V for y (linear forms) and constant
    U, V (rows of int residues); C, a 3x3 matrix of linear forms with
    tr(B*C) = 0 mod f, has one by the divergence theorem."""
    if C.n != 3:
        raise ValueError(f"C must be 3x3, got {C.n}x{C.n}")
    if C.degree != 1:
        raise ValueError(f"C must have linear entries, got degree {C.degree}")
    a = tuple(a)
    fac = moore_factorization(a)
    if not trace_criterion(fac, C):
        raise RepresentationError("C is not in the m = 0 solution space: tr(B*C) != 0 mod f")
    p = fac.f.p
    # y unknowns: y_i = sum_k y_ik x_k contributes M_{b,e_i} * x_k, each entry
    # of M_{b,e_i} at the monomial x_k; then the U and -V unknowns (constant)
    consts = moore_span_basis(a)
    columns = [[c if j == k else 0 for c in v for j in range(3)] for v in consts for k in range(3)]
    left, right = unit_products(fac.A, 0)
    columns += left + right
    system = [list(row) for row in zip(*columns)]
    rhs = C.row()
    sol = linalg.solve_mod(system, rhs, p)
    if sol is None:
        raise AssertionError("no Moore representative for a solution C: divergence theorem fails")
    y = tuple(HomForm.from_row(1, p, sol[3 * i : 3 * i + 3]) for i in range(3))
    U = [sol[9 + 3 * r : 12 + 3 * r] for r in range(3)]
    V = [[-x % p for x in sol[18 + 3 * r : 21 + 3 * r]] for r in range(3)]
    return y, U, V


def divergence_class(a, C: FormMatrix) -> int:
    """The divergence of the Moore representative of a linear C; zero
    exactly on the homotopy subspace."""
    return divergence(moore_representative(a, C)[0])
