"""Finite Heisenberg groups, their action on Moore matrices, and the
Schroedinger characters.

H_n is presented by sigma, tau with central commutator c = [sigma, tau]
of order n; every element has the unique normal form c^r sigma^s tau^t.
For n = 3 the group acts on P^2 through Sigma = heis3_matrix(1, 0, 1, p)
(cyclic shift) and T = heis3_matrix(1, 1, 0, p) = diag(1, w, w^2); every
Heis_3 matrix, heis3_representation's included, comes from heis3_matrix.
The orbit of a triple a, together with three trace invariants,
classifies the Moore matrices on one curve (hesse's curve_through, which
also rejects a zero coordinate) up to equivalence.  On rho_1 (x) rho_1
it acts through the Kronecker squares of heis3_matrix's T and Sigma^2.

Characters take values in F_p through a root of unity zeta, so the
whole computation stays in one exact arithmetic domain.  Every scalar is
an int residue beside its modulus p: the roots of unity, zeta, mu, each
matrix (rows of residues), the trace invariants and the character values.
FieldElement appears only in the triples a, which enter through
field.triple_residues, and in the triple t_action returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import linalg
from .field import FieldElement, primitive_root_of_unity, triple_residues, validate_modulus
from .hesse import curve_through
from .moore import ProjectivePoint, moore_scalar


@dataclass(frozen=True)
class HeisenbergElement:
    """Normal form [sigma,tau]^r sigma^s tau^t in H_n."""

    n: int
    r: int
    s: int
    t: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order parameter must be positive")
        object.__setattr__(self, "r", self.r % self.n)
        object.__setattr__(self, "s", self.s % self.n)
        object.__setattr__(self, "t", self.t % self.n)

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if other.n != self.n:
            raise ValueError("mixed Heisenberg groups")
        # tau^t sigma^s = sigma^s tau^t c^{-s t} moves the commutator out front
        return HeisenbergElement(
            self.n,
            self.r + other.r - other.s * self.t,
            self.s + other.s,
            self.t + other.t,
        )

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(self.n, -self.r - self.s * self.t, -self.s, -self.t)


def hn_elements(n: int) -> list[HeisenbergElement]:
    return [
        HeisenbergElement(n, r, s, t)
        for r in range(n)
        for s in range(n)
        for t in range(n)
    ]


# -- the 3x3 matrix realization Heis_3 --------------------------------
#
# Every matrix of Heis_3 is monomial, mu * T^i * Sigma^j, and comes from
# heis3_matrix as rows of int residues mod p.


def _monomial_matrix(shift: int, diag, p: int) -> list[list[int]]:
    """The 3x3 matrix with diag[r] at (r, r - shift mod 3), zero elsewhere."""
    m = [[0, 0, 0] for _ in range(3)]
    for r in range(3):
        m[r][(r - shift) % 3] = diag[r] % p
    return m


def heis3_matrix(mu: int, i: int, j: int, p: int) -> list[list[int]]:
    """The matrix mu * T^i * Sigma^j of Heis_3 over F_p: mu * w^(i*r) at
    (r, r - j)."""
    w = primitive_root_of_unity(p, 3)
    if not mu % p:
        raise ValueError("mu must be nonzero")
    return _monomial_matrix(j, [mu * pow(w, i * r % 3, p) for r in range(3)], p)


def heis3_representation(g: HeisenbergElement, p: int) -> list[list[int]]:
    """The matrix of [sigma,tau]^r sigma^s tau^t in Heis_3 over F_p,
    under sigma -> Sigma, tau -> T, [sigma,tau] -> w^2 * I: the entry
    w^(2r + t(row - s)) at (row, row - s), so heis3_matrix(w^(2r - ts), t, s).

    A homomorphism: heis3_representation(g * h) equals the matrix
    product of the images (tested, not assumed).
    """
    if g.n != 3:
        raise ValueError("matrix realization is for H_3 only")
    w = primitive_root_of_unity(p, 3)
    return heis3_matrix(pow(w, (2 * g.r - g.t * g.s) % 3, p), g.t, g.s, p)


def sigma_action(a):
    """Sigma sends (a0, a1, a2) to (a2, a0, a1); FieldElements or ints."""
    return (a[2], a[0], a[1])


def t_action(a):
    """T sends (a0, a1, a2) to (a0, w*a1, w^2*a2)."""
    v, p = triple_residues(a)
    w = primitive_root_of_unity(p, 3)
    return tuple(FieldElement(x, p) for x in _t_mod(v, w, p))


def _t_mod(v, w: int, p: int) -> tuple[int, int, int]:
    """T on a triple of int residues, with w the cube root of unity."""
    return (v[0], w * v[1] % p, w * w * v[2] % p)


def orbit(a) -> set[ProjectivePoint]:
    """The projective Heis_3 orbit {T^i Sigma^j a}; 9 points when
    a0*a1*a2 != 0 and the Hesse curve through a is smooth (a vertex of
    a singular triangle, such as (1, 1, -2), has 3)."""
    v, p = triple_residues(a)
    if not any(v):
        raise ValueError("orbit of the zero triple")
    w = primitive_root_of_unity(p, 3)
    out = set()
    for _ in range(3):
        cur = v
        for _ in range(3):
            out.add(ProjectivePoint.from_ints(cur, p))
            cur = sigma_action(cur)
        v = _t_mod(v, w, p)
    return out


# -- trace invariants and equivalence ----------------------------------


def n_matrices(a) -> tuple[list[list[int]], list[list[int]]]:
    """N_i = M_0^{-1} M_i for i = 1, 2, with M_i = d(Moore matrix)/dx_i,
    the Moore matrix at the unit triple e_i (moore_scalar); M_0 is
    diagonal, so N_i is M_i with row r over M_0[r][r]."""
    v, p = triple_residues(a)
    prod = v[0] * v[1] * v[2]
    if not prod % p:
        raise ValueError("n_matrices needs a0*a1*a2 != 0")
    inv = pow(prod, -1, p)
    m0, m1, m2 = (moore_scalar(v, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # 1/M_0[r][r] is the product of the other two coordinates over a0*a1*a2
    return tuple(
        [[prod // m0[r][r] * inv * x % p for x in m[r]] for r in range(3)] for m in (m1, m2)
    )


def trace_invariants(a) -> tuple[int, int, int]:
    """(tr((N1 N2)^2), tr(N1^2 N2^2), tr(N1 N2 N1^2 N2^2)) as residues.

    Computed from the matrices and cross-checked against the closed
    rational expressions; a mismatch is an internal error.
    """
    v, p = triple_residues(a)
    n1, n2 = n_matrices(a)

    def mm(x, y):
        return linalg.mat_mul_mod(x, y, p)

    def trace(m):
        return (m[0][0] + m[1][1] + m[2][2]) % p

    n12 = mm(n1, n2)
    n1sq_n2sq = mm(mm(n1, n1), mm(n2, n2))
    traces = (trace(mm(n12, n12)), trace(n1sq_n2sq), trace(mm(n12, n1sq_n2sq)))
    c0, c1, c2 = (pow(x, 3, p) for x in v)
    inv = pow(v[0] * v[1] * v[2], -1, p)
    closed = (
        (c0 * c0 + c1 * c1 + c2 * c2) * inv * inv % p,
        (c0 * c1 + c0 * c2 + c1 * c2) * inv * inv % p,
        (c0 * c0 * c1 + c1 * c1 * c2 + c2 * c2 * c0) * pow(inv, 3, p) % p,
    )
    if traces != closed:
        raise AssertionError("trace invariants disagree with their closed forms")
    return traces


def on_same_curve(a, a2) -> bool:
    """Whether the triples a and a2, both with nonzero coordinate
    products (curve_through checks), lie on the same smooth Hesse cubic."""
    triples = [triple_residues(t) for t in (a, a2)]
    lam, lam2 = (curve_through(ProjectivePoint.from_ints(v, p)).lam for v, p in triples)
    return lam == lam2


def are_equivalent(a, a2) -> bool:
    """Whether the Moore matrices of a and a2 are equivalent: both on the
    same smooth curve and with equal trace invariants."""
    return on_same_curve(a, a2) and trace_invariants(a) == trace_invariants(a2)


# -- Schroedinger characters -------------------------------------------


class ClassFunction:
    """An F_p-valued class function on H_n, with int residue values."""

    def __init__(self, n: int, p: int, values: dict[HeisenbergElement, int]):
        self.n = n
        self.p = p
        self.values = values

    def __call__(self, g: HeisenbergElement) -> int:
        return self.values[g]

    def _check(self, other: "ClassFunction") -> None:
        if other.p != self.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if other.n != self.n:
            raise ValueError(f"group mismatch: H_{self.n} vs H_{other.n}")

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        p = self.p
        return ClassFunction(
            self.n, p, {g: v * other.values[g] % p for g, v in self.values.items()}
        )

    def scale(self, c: int) -> "ClassFunction":
        p = self.p
        return ClassFunction(self.n, p, {g: c * v % p for g, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self.values == other.values

    def inner_product(self, other: "ClassFunction") -> int:
        """(1/n^3) * sum_g self(g) * other(g^{-1}), in F_p."""
        self._check(other)
        p = self.p
        total = sum(self.values[g] * other.values[g.inverse()] for g in hn_elements(self.n))
        return total * pow(self.n ** 3, -1, p) % p


def schrodinger_character(n: int, j: int, zeta: int, p: int) -> ClassFunction:
    """chi_j of H_n over F_p: zero off the subgroup s = 0, j*t = 0, and
    n*zeta^(j*r) on it."""
    validate_modulus(p)
    if pow(zeta, n, p) != 1 or any(pow(zeta, k, p) == 1 for k in range(1, n)):
        raise ValueError("zeta must be a primitive n-th root of unity")
    values = {}
    for g in hn_elements(n):
        if g.s % n == 0 and (j * g.t) % n == 0:
            values[g] = n * pow(zeta, (j * g.r) % n, p) % p
        else:
            values[g] = 0
    return ClassFunction(n, p, values)


def verify_restriction(n: int, d: int, j: int, p: int) -> bool:
    """chi_j of H_n pulled back along H_d -> H_n equals (n/d) * chi_{(j*n/d) mod d},
    over F_p with zeta the smallest root of unity of order n.

    The homomorphism maps the normal form (r, s, t) of H_d to
    (m^2 r, m s, m t) in H_n with m = n/d; requires n | p-1 (checked
    first), d >= 1 and gcd(d, m) = 1.
    """
    zeta = primitive_root_of_unity(p, n)
    if d < 1:
        raise ValueError(f"d must be a positive divisor of n, got d = {d}")
    if n % d != 0:
        raise ValueError("d must divide n")
    m = n // d
    if gcd(d, m) != 1:
        raise ValueError("restriction needs gcd(d, n/d) = 1")
    chi_n = schrodinger_character(n, j, zeta, p)
    # for d = 1, zeta^n = 1 and chi_0 of the trivial H_1 is 1
    chi_d = schrodinger_character(d, (j * m) % d, pow(zeta, m, p), p)
    for g in hn_elements(d):
        image = HeisenbergElement(n, (m * m * g.r) % n, (m * g.s) % n, (m * g.t) % n)
        if chi_n(image) != m * chi_d(g) % p:
            return False
    return True


# -- tensor decomposition on H_3 ---------------------------------------


def _tensor(cells):
    """The tensor with coefficient a_k on x_i y_j for each (i, j, k) in
    cells, as a 9x3 int matrix: row 3i+j, column k (the symbolic a_k)."""
    coeff = [[0, 0, 0] for _ in range(9)]
    for i, j, k in cells:
        coeff[3 * i + j][k] = 1
    return coeff


def _kron_square(m: list[list[int]], p: int) -> list[list[int]]:
    """m (x) m for a 3x3 m, acting on the rows 3i+j of a tensor."""
    pairs = [(i, j) for i in range(3) for j in range(3)]
    return [[m[i][k] * m[j][l] % p for k, l in pairs] for i, j in pairs]


def verify_tensor_h3(p: int) -> bool:
    """rho_1 (x) rho_1 of H_3 over F_p, with omega the smallest cube root
    of unity, decomposes as three copies of rho_2.

    tau' = T (x) T, and sigma' = Sigma^2 (x) Sigma^2 sends x_i y_j to
    x_{i-1} y_{j-1}.  Checks the pointwise character identity
    chi_1^2 = 3*chi_2 on all 27 elements, the tau'-eigenvalues (1, w^2, w)
    of the explicit basis f_0, f_1, f_2 for symbolic a, and that
    specializing a to the three standard basis vectors yields nine
    independent tensors.
    """
    omega = primitive_root_of_unity(p, 3)
    chi1 = schrodinger_character(3, 1, omega, p)
    chi2 = schrodinger_character(3, 2, omega, p)
    if chi1 * chi1 != chi2.scale(3):
        return False
    tau, sigma = (_kron_square(heis3_matrix(1, i, j, p), p) for i, j in ((1, 0), (0, 2)))
    # f_0 = a0 x0 y0 + a1 x2 y1 + a2 x1 y2 and f_{-i} = sigma'^i(f_0)
    f0 = _tensor([(0, 0, 0), (2, 1, 1), (1, 2, 2)])
    f2 = linalg.mat_mul_mod(sigma, f0, p)  # f_2 = sigma'(f_0)
    f1 = linalg.mat_mul_mod(sigma, f2, p)  # f_1 = sigma'^2 (f_0) = sigma'^{-1}(f_0)
    eigen = [1, omega * omega % p, omega]
    for f, ev in zip((f0, f1, f2), eigen):
        if linalg.mat_mul_mod(tau, f, p) != [[ev * c % p for c in row] for row in f]:
            return False
    # displayed formulas: f1 = a2 x2 y0 + a0 x1 y1 + a1 x0 y2,
    #                     f2 = a1 x1 y0 + a2 x0 y1 + a0 x2 y2
    expected_f1 = _tensor([(2, 0, 2), (1, 1, 0), (0, 2, 1)])
    expected_f2 = _tensor([(1, 0, 1), (0, 1, 2), (2, 2, 0)])
    if [f1, f2] != [expected_f1, expected_f2]:
        return False
    # a = e_0, e_1, e_2 give three independent copies: nine independent tensors
    vectors = [[row[k] for row in f] for k in range(3) for f in (f0, f1, f2)]
    return linalg.rank_mod(vectors, p) == 9
