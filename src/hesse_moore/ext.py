"""Graded self-extension spaces of the rank-1 Ulrich module, as exact
linear algebra over F_p.

The degree-m extension space of a 3x3 determinantal factorization (a
Moore triple means moore_factorization of it) is the quotient

    {C in Mat_3(S_{m+1}) : tr(B*C) = 0 mod f}
    ---------------------------------------------
    {U*A - A*V : U, V in Mat_3(S_m)}

on coordinate rows of int residues (FormMatrix.row()).  Each trace
constraint, linear in C, sums remainders mod f of degree-(m+3) monomials
(remainder_table) by position.  The homotopies span the E*A and A*E for
unit matrices E, sparse rows of A's terms at product_index positions
(_unit_rows; unit_products densifies every coordinate).  ext_space
builds no dense matrix: the pivots of an echelon basis of the
constraints (linalg.echelon_mod) leave the free columns (the solution
coordinates), where those terms are placed, and the representatives, the
solutions taken greedily outside the homotopies' span, are read off the
pivots of one more; an ExtSpace keeps the constraint basis and builds
the rest on first read.  At m = -1 the M_{b,e_i} (moore_span_basis,
checked by verify) span the solutions; moore_representative places
their entries at each x_k, as unit_products places A's, for a Moore
matrix A (moore_triple), and divergence_class is the divergence of its y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import linalg
from .field import FieldElement, triple_residues
from .hesse import extension_representative
from .moore import FormMatrix, moore, moore_scalar
from .poly import HomForm, monomial_index, product_index, remainder_table
from .ulrich import MatrixFactorization, divergence, moore_factorization, trace_criterion


@dataclass
class ExtSpace:
    """The extension space over F_p at shift m: the echelon basis of the
    trace constraints on Mat_3(S_{m+1}) (linalg.echelon_mod), its
    pivots, the representatives' indices among the solutions, and A.
    constraints (the basis reduced), solutions, representatives,
    generators and homotopies (the generators' reduced span), coordinate
    rows of degree-(m+1) forms, are built on first read."""

    m: int
    p: int
    basis: dict[int, dict[int, int]]
    pivots: list[int]
    representative_indices: list[int]
    A: FormMatrix

    @cached_property
    def constraints(self) -> list[list[int]]:
        width = 9 * len(monomial_index(self.m + 1))
        rows = linalg.densify([self.basis[c] for c in self.pivots], width)
        linalg.rref_mod(rows, self.p)
        return rows

    @cached_property
    def solutions(self) -> list[list[int]]:
        width = 9 * len(monomial_index(self.m + 1))
        return linalg.kernel_basis(self.constraints, self.pivots, width, self.p)

    @cached_property
    def representatives(self) -> list[list[int]]:
        return [self.solutions[k] for k in self.representative_indices]

    @cached_property
    def generators(self) -> list[list[int]]:
        return [g for side in unit_products(self.A, self.m) for g in side]

    @cached_property
    def homotopies(self) -> list[list[int]]:
        rows = list(self.generators)
        return rows[: len(linalg.rref_mod(rows, self.p))]

    @property
    def quotient_dimension(self) -> int:
        return len(self.representative_indices)


def _unit_rows(A: FormMatrix, degree: int, where):
    """Sparse int rows ({column: int}) of the E_rc*mu @ A and the
    A @ E_rc*mu for a 3x3 A, r, c row-major and mu over the degree-d
    monomials, coordinate j at column where[j] (dropped when j is not in
    where): E_rc*mu @ A is row c of A times mu in row r, and A @ E_rc*mu
    column r of A times mu in column c."""
    if A.n != 3:
        raise ValueError(f"unit_products needs a 3x3 matrix, got {A.n}x{A.n}")
    k, entries = len(monomial_index(degree + A.degree)), A.entries
    left, right = [], []
    for r in range(3):
        for c in range(3):
            # row mu of the table places mu times each monomial of A's degree
            for at in product_index(degree, A.degree):
                u, v = {}, {}
                for t in range(3):
                    for e, x in entries[c][t].terms:
                        if (j := (3 * r + t) * k + at[e]) in where:
                            u[where[j]] = x
                    for e, x in entries[t][r].terms:
                        if (j := (3 * t + c) * k + at[e]) in where:
                            v[where[j]] = x
                left.append(u)
                right.append(v)
    return left, right


def unit_products(A: FormMatrix, degree: int) -> tuple[list[list[int]], list[list[int]]]:
    """The coordinate rows (FormMatrix.row()) of the E_rc*mu @ A and the
    A @ E_rc*mu (_unit_rows, every coordinate in place)."""
    width = 9 * len(monomial_index(degree + A.degree))
    left, right = _unit_rows(A, degree, range(width))
    return linalg.densify(left, width), linalg.densify(right, width)


def _free_columns(pivots: list[int], width: int) -> dict[int, int]:
    """Each column of a width-wide row not in pivots, to its place among them last-first."""
    free = sorted(set(range(width)).difference(pivots), reverse=True)
    return dict(zip(free, range(len(free))))


def moore_triple(fac: MatrixFactorization) -> tuple[FieldElement, ...]:
    """The triple a of a factorization whose A is the Moore matrix
    M_{a,x}, read off its diagonal a0*x0, a2*x0, a1*x0; any other A is
    a ValueError."""
    A = fac.A
    if A.n == 3 and A.degree == 1:
        v = [A.entries[i][i].coefficient((1, 0, 0)) for i in (0, 2, 1)]
        if any(v) and moore(a := tuple(FieldElement(x, A.p) for x in v)) == A:
            return a
    raise ValueError(f"A is not a 3x3 Moore matrix: {A.serialize()}")


def ext_space(x, m: int) -> ExtSpace:
    """The extension space at shift m of a 3x3 determinantal
    factorization x; a Moore triple means moore_factorization of it.
    Solution k is 1 at the k-th free column and 0 at the others, so a
    generator's coordinates are its entries there; with W their span,
    dim(W + <e_1..e_k>) = k + dim(W past k), so solution k is a
    representative exactly when it is no pivot of W's columns last-first."""
    fac = x if isinstance(x, MatrixFactorization) else moore_factorization(x)
    if (n := fac.A.n) != 3 or fac.A.degree != 1:  # the trace criterion needs B = adj(A) / c
        raise ValueError(f"ext_space needs a 3x3 linear A, got {n}x{n} of degree {fac.A.degree}")
    p, B = fac.f.p, fac.B
    width = 9 * len(monomial_index(m + 1))
    if not width:  # m < -1: no unknowns, so no constraints and no generators
        return ExtSpace(m, p, {}, [], [], fac.A)
    # tr(B * E_rc * mu) = B[c][r] * mu; constraints are the coefficients of
    # its remainder mod f over the degree-(m+3) monomials, which is linear:
    # the sum of b_e * rem(x^(e + mu)) over the terms b_e x^e of B[c][r]
    rem = remainder_table(fac.f.form, m + 3)
    rows = [{} for _ in rem]
    at, j = product_index(B.degree, m + 1), 0
    for r in range(3):
        for c in range(3):
            for mu in range(width // 9):
                for e, b in B.entries[c][r].terms:
                    for k, w in rem[at[e][mu]]:
                        row = rows[k]
                        row[j] = row.get(j, 0) + b * w
                j += 1
    basis = linalg.echelon_mod(rows, p)
    where = _free_columns(basis, width)
    # the U*A - A*V span what the U*A and the A*V span
    w_pivots = linalg.echelon_mod(chain(*_unit_rows(fac.A, m, where)), p)
    reps = [k for k in range(len(where)) if len(where) - 1 - k not in w_pivots]
    return ExtSpace(m, p, basis, sorted(basis), reps, fac.A)


def moore_span_basis(a) -> list[list[int]]:
    """The coordinate rows (FormMatrix.row()) of the constant Moore matrices
    M_{b,e_i} at the extension representative b of -2*a."""
    v, p = triple_residues(a)
    b = extension_representative(v)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [[c % p for row in moore_scalar(b, e) for c in row] for e in units]


class RepresentationError(ValueError):
    """No Moore-form representative exists for the given solution."""


def moore_representative(x, C: FormMatrix):
    """Solve C = M_{b,y} + U*A - A*V for y (linear forms) and constant
    U, V (rows of int residues), for a factorization whose A is a Moore
    matrix (moore_triple; a Moore triple means moore_factorization of
    it); C, a 3x3 matrix of linear forms with tr(B*C) = 0 mod f, has one
    by the divergence theorem."""
    if C.n != 3:
        raise ValueError(f"C must be 3x3, got {C.n}x{C.n}")
    if C.degree != 1:
        raise ValueError(f"C must have linear entries, got degree {C.degree}")
    fac = x if isinstance(x, MatrixFactorization) else moore_factorization(x)
    a = moore_triple(fac)
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


def divergence_class(x, C: FormMatrix) -> int:
    """The divergence of the Moore representative of a linear C; zero
    exactly on the homotopy subspace."""
    return divergence(moore_representative(x, C)[0])
