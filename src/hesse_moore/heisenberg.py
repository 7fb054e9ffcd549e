"""Finite Heisenberg groups, their action on Moore matrices, and the
Schroedinger characters.

H_n is presented by sigma, tau with central commutator c = [sigma, tau]
of order n; every element has the unique normal form c^r sigma^s tau^t.
For n = 3 the group acts on P^2 through the matrices Sigma (cyclic
shift) and T = diag(1, w, w^2), and the orbit of a triple a, together
with three trace invariants, classifies Moore matrices up to
equivalence.

Characters take values in F_p through a chosen root of unity zeta, so
the whole computation stays in one exact arithmetic domain.  FieldElement
appears only in the inputs (the triples a, zeta, mu); every matrix is
rows of int residues mod p (each Heis_3 matrix is monomial and is built
from its shift and diagonal), trace invariants and character values are
int residues, and orbit builds its points from int triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import linalg
from .field import FieldElement, primitive_root_of_unity
from .hesse import curve_through
from .moore import FormMatrix, ProjectivePoint, moore


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


def hn_identity(n: int) -> HeisenbergElement:
    return HeisenbergElement(n, 0, 0, 0)


def hn_elements(n: int) -> list[HeisenbergElement]:
    return [
        HeisenbergElement(n, r, s, t)
        for r in range(n)
        for s in range(n)
        for t in range(n)
    ]


# -- the 3x3 matrix realization Heis_3 --------------------------------
#
# Every matrix of Heis_3 is monomial: a diagonal times a power of Sigma.
# All of them are rows of int residues mod p.


def _monomial_matrix(shift: int, diag, p: int) -> list[list[int]]:
    """The 3x3 matrix with diag[r] at (r, r - shift mod 3), zero elsewhere."""
    m = [[0, 0, 0] for _ in range(3)]
    for r in range(3):
        m[r][(r - shift) % 3] = diag[r] % p
    return m


def sigma_matrix(p: int) -> list[list[int]]:
    return _monomial_matrix(1, (1, 1, 1), p)


def t_matrix(p: int) -> list[list[int]]:
    w = primitive_root_of_unity(p, 3).value
    return _monomial_matrix(0, (1, w, w * w), p)


def heis3_matrix(mu: FieldElement, i: int, j: int) -> list[list[int]]:
    """The matrix mu * T^i * Sigma^j of Heis_3: mu * w^(i*r) at
    (r, r - j)."""
    if not mu:
        raise ValueError("mu must be nonzero")
    p = mu.p
    w = primitive_root_of_unity(p, 3).value
    return _monomial_matrix(j, [mu.value * pow(w, i * r % 3, p) for r in range(3)], p)


def commutator_matrix(p: int) -> list[list[int]]:
    """[Sigma, T] = Sigma T Sigma^{-1} T^{-1} = w^2 * I.

    Note the exponent: for the displayed matrices the commutation
    relation is Sigma T = w^2 T Sigma, equivalently T Sigma = w Sigma T.
    """
    mm = linalg.mat_mul_mod
    s, t = sigma_matrix(p), t_matrix(p)
    s_inv = mm(s, s, p)  # Sigma^3 = I
    t_inv = mm(t, t, p)
    return mm(mm(s, t, p), mm(s_inv, t_inv, p), p)


def heis3_representation(g: HeisenbergElement, p: int) -> list[list[int]]:
    """The matrix of [sigma,tau]^r sigma^s tau^t in Heis_3 over F_p,
    under sigma -> Sigma, tau -> T, [sigma,tau] -> w^2 * I: the entry
    w^(2r + t(row - s)) at (row, row - s).

    A homomorphism: heis3_representation(g * h) equals the matrix
    product of the images (tested, not assumed).
    """
    if g.n != 3:
        raise ValueError("matrix realization is for H_3 only")
    w = primitive_root_of_unity(p, 3).value
    diag = [pow(w, (2 * g.r + g.t * (r - g.s)) % 3, p) for r in range(3)]
    return _monomial_matrix(g.s, diag, p)


def conjugation_identities(a) -> bool:
    """M_{T(a),x} = T * M_{a,x} * T and
    M_{Sigma(a),x} = Sigma^{-1} * M_{a,x} * Sigma, symbolically."""
    a = tuple(a)
    p = a[0].p
    m = moore(a)
    t = FormMatrix.from_scalars(t_matrix(p), p)
    s = FormMatrix.from_scalars(sigma_matrix(p), p)
    s_inv = s @ s  # Sigma^3 = I
    if moore(t_action(a)) != t @ m @ t:
        return False
    return moore(sigma_action(a)) == s_inv @ m @ s


def sigma_action(a):
    """Sigma sends (a0, a1, a2) to (a2, a0, a1); FieldElements or ints."""
    return (a[2], a[0], a[1])


def t_action(a):
    """T sends (a0, a1, a2) to (a0, w*a1, w^2*a2)."""
    p = a[0].p
    w = primitive_root_of_unity(p, 3).value
    return tuple(FieldElement(v, p) for v in _t_mod([c.value for c in a], w, p))


def _t_mod(v, w: int, p: int) -> tuple[int, int, int]:
    """T on a triple of int residues, with w the cube root of unity."""
    return (v[0], w * v[1] % p, w * w * v[2] % p)


def orbit(a) -> set[ProjectivePoint]:
    """The projective Heis_3 orbit {T^i Sigma^j a}; 9 points when
    a0*a1*a2 != 0 and the Hesse curve through a is smooth (a vertex of
    a singular triangle, such as (1, 1, -2), has 3)."""
    p = a[0].p
    v = tuple(c.value for c in a)
    if not any(v):
        raise ValueError("orbit of the zero triple")
    w = primitive_root_of_unity(p, 3).value
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
    """N_i = M_0^{-1} M_i for i = 1, 2, with M_0 = diag(a0, a2, a1) and
    M_i = d(Moore matrix)/dx_i: row r of N_i holds a[2r - i] / a[2r] in
    column r - i."""
    return _n_matrices([c.value for c in a], a[0].p)


def _n_matrices(v, p: int) -> tuple[list[list[int]], list[list[int]]]:
    """n_matrices of the int residues v."""
    prod = v[0] * v[1] * v[2] % p
    if not prod:
        raise ValueError("n_matrices needs a0*a1*a2 != 0")
    inv = pow(prod, p - 2, p)
    # 1/a[k] is the product of the other two coordinates over a0*a1*a2
    recip = [v[1] * v[2] * inv % p, v[0] * v[2] * inv % p, v[0] * v[1] * inv % p]
    return tuple(
        _monomial_matrix(i, [v[(2 * r - i) % 3] * recip[2 * r % 3] for r in range(3)], p)
        for i in (1, 2)
    )


def trace_invariants(a) -> tuple[int, int, int]:
    """(tr((N1 N2)^2), tr(N1^2 N2^2), tr(N1 N2 N1^2 N2^2)) as residues.

    Computed from the matrices and cross-checked against the closed
    rational expressions; a mismatch is an internal error.
    """
    p = a[0].p
    v = [c.value for c in a]
    n1, n2 = _n_matrices(v, p)

    def mm(x, y):
        return linalg.mat_mul_mod(x, y, p)

    def trace(m):
        return (m[0][0] + m[1][1] + m[2][2]) % p

    n12 = mm(n1, n2)
    n1sq_n2sq = mm(mm(n1, n1), mm(n2, n2))
    traces = (trace(mm(n12, n12)), trace(n1sq_n2sq), trace(mm(n12, n1sq_n2sq)))
    c0, c1, c2 = (pow(x, 3, p) for x in v)
    inv = pow(v[0] * v[1] * v[2], p - 2, p)
    closed = (
        (c0 * c0 + c1 * c1 + c2 * c2) * inv * inv % p,
        (c0 * c1 + c0 * c2 + c1 * c2) * inv * inv % p,
        (c0 * c0 * c1 + c1 * c1 * c2 + c2 * c2 * c0) * pow(inv, 3, p) % p,
    )
    if traces != closed:
        raise AssertionError("trace invariants disagree with their closed forms")
    return traces


def are_equivalent(a, a2) -> bool:
    """Whether the Moore matrices of a and a2 are equivalent: both on the
    same smooth curve and with equal trace invariants."""
    a = tuple(a)
    a2 = tuple(a2)
    if not (a[0] * a[1] * a[2]) or not (a2[0] * a2[1] * a2[2]):
        raise ValueError("equivalence test needs nonzero coordinate products")
    ca = curve_through(ProjectivePoint(a))
    cb = curve_through(ProjectivePoint(a2))
    if ca.lam != cb.lam:
        return False
    return trace_invariants(a) == trace_invariants(a2)


# -- Schroedinger characters -------------------------------------------


class ClassFunction:
    """An F_p-valued class function on H_n, with int residue values."""

    def __init__(self, n: int, p: int, values: dict[HeisenbergElement, int]):
        self.n = n
        self.p = p
        self.values = values

    def __call__(self, g: HeisenbergElement) -> int:
        return self.values[g]

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
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
        return self.n == other.n and self.values == other.values

    def inner_product(self, other: "ClassFunction") -> int:
        """(1/n^3) * sum_g self(g) * other(g^{-1}), in F_p."""
        p = self.p
        total = sum(self.values[g] * other.values[g.inverse()] for g in hn_elements(self.n))
        return total * pow(self.n ** 3, -1, p) % p


def schrodinger_character(n: int, j: int, zeta: FieldElement) -> ClassFunction:
    """chi_j of H_n: zero off the subgroup s = 0, j*t = 0, and n*zeta^(j*r)
    on it."""
    p, z = zeta.p, zeta.value
    if pow(z, n, p) != 1 or any(pow(z, k, p) == 1 for k in range(1, n)):
        raise ValueError("zeta must be a primitive n-th root of unity")
    values = {}
    for g in hn_elements(n):
        if g.s % n == 0 and (j * g.t) % n == 0:
            values[g] = n * pow(z, (j * g.r) % n, p) % p
        else:
            values[g] = 0
    return ClassFunction(n, p, values)


def verify_restriction(n: int, d: int, j: int, zeta: FieldElement) -> bool:
    """chi_j of H_n pulled back along H_d -> H_n equals (n/d) * chi_{(j*n/d) mod d}.

    The homomorphism maps the normal form (r, s, t) of H_d to
    (m^2 r, m s, m t) in H_n with m = n/d; requires gcd(d, m) = 1.
    """
    if n % d != 0:
        raise ValueError("d must divide n")
    m = n // d
    if gcd(d, m) != 1:
        raise ValueError("restriction needs gcd(d, n/d) = 1")
    p = zeta.p
    chi_n = schrodinger_character(n, j, zeta)
    chi_d = schrodinger_character(d, (j * m) % d, zeta ** m) if d > 1 else None
    for g in hn_elements(d):
        image = HeisenbergElement(n, (m * m * g.r) % n, (m * g.s) % n, (m * g.t) % n)
        # H_1 is trivial; chi = n at its element
        expected = m * chi_d(g) % p if chi_d is not None else n % p
        if chi_n(image) != expected:
            return False
    return True


# -- tensor decomposition on H_3 ---------------------------------------


def _tensor(cells):
    """The tensor with coefficient a_k on x_i y_j for each (i, j, k) in
    cells: coeff[i][j] is a length-3 int vector over the symbolic a."""
    coeff = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    for i, j, k in cells:
        coeff[i][j][k] = 1
    return coeff


def _tensor_tau(coeff, omega: int, p: int):
    """tau' = rho_1(tau) x rho_1(tau) scales the basis tensor x_i y_j by
    omega^(i+j)."""
    return [
        [[pow(omega, (i + j) % 3, p) * c % p for c in coeff[i][j]] for j in range(3)]
        for i in range(3)
    ]


def _tensor_sigma(coeff):
    """sigma' = rho_1(sigma) x rho_1(sigma) sends x_i y_j to x_{i-1} y_{j-1}."""
    return [[coeff[(i + 1) % 3][(j + 1) % 3] for j in range(3)] for i in range(3)]


def _tensor_scale(coeff, c: int, p: int):
    return [[[c * v % p for v in cell] for cell in row] for row in coeff]


def verify_tensor_h3(zeta: FieldElement) -> bool:
    """rho_1 (x) rho_1 of H_3 decomposes as three copies of rho_2.

    Checks the pointwise character identity chi_1^2 = 3*chi_2 on all 27
    elements, the tau'-eigenvalues (1, w^2, w) of the explicit basis
    f_0, f_1, f_2 for symbolic a, and that specializing a to the three
    standard basis vectors yields nine independent tensors.
    """
    p = zeta.p
    chi1 = schrodinger_character(3, 1, zeta)
    chi2 = schrodinger_character(3, 2, zeta)
    if chi1 * chi1 != chi2.scale(3):
        return False
    omega = zeta.value
    # f_0 = a0 x0 y0 + a1 x2 y1 + a2 x1 y2 and f_{-i} = sigma'^i(f_0)
    f0 = _tensor([(0, 0, 0), (2, 1, 1), (1, 2, 2)])
    f1 = _tensor_sigma(_tensor_sigma(f0))  # f_1 = sigma'^2 (f_0) = sigma'^{-1}(f_0)
    f2 = _tensor_sigma(f0)  # f_2 = sigma'(f_0)
    eigen = [1, omega * omega % p, omega]
    for f, ev in zip((f0, f1, f2), eigen):
        if _tensor_tau(f, omega, p) != _tensor_scale(f, ev, p):
            return False
    # displayed formulas: f1 = a2 x2 y0 + a0 x1 y1 + a1 x0 y2,
    #                     f2 = a1 x1 y0 + a2 x0 y1 + a0 x2 y2
    expected_f1 = _tensor([(2, 0, 2), (1, 1, 0), (0, 2, 1)])
    expected_f2 = _tensor([(1, 0, 1), (0, 1, 2), (2, 2, 0)])
    if [f1, f2] != [expected_f1, expected_f2]:
        return False
    # a = e_0, e_1, e_2 give three independent copies: nine independent tensors
    vectors = []
    for k in range(3):
        for f in (f0, f1, f2):
            vectors.append([f[i][j][k] for i in range(3) for j in range(3)])
    return linalg.rank_mod(vectors, p) == 9
