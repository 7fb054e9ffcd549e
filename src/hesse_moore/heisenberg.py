"""Finite Heisenberg groups, their action on Moore matrices, and the
Schroedinger characters.

H_n is presented by sigma, tau with central commutator c = [sigma, tau]
of order n; every element has the unique normal form c^r sigma^s tau^t.
For n = 3 the group acts on P^2 through the matrices Sigma (cyclic
shift) and T = diag(1, w, w^2), and the orbit of a triple a, together
with three trace invariants, classifies Moore matrices up to
equivalence.

Characters take values in F_p through a chosen root of unity zeta, so
the whole computation stays in one exact arithmetic domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import linalg
from .field import FieldElement, one as f_one, primitive_root_of_unity, zero as f_zero
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

    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0 and self.t == 0


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


def sigma_matrix(p: int):
    z, o = f_zero(p), f_one(p)
    return [[z, z, o], [o, z, z], [z, o, z]]


def t_matrix(p: int):
    omega = primitive_root_of_unity(p, 3)
    z, o = f_zero(p), f_one(p)
    return [[o, z, z], [z, omega, z], [z, z, omega * omega]]


def heis3_matrix(mu: FieldElement, i: int, j: int):
    """The matrix mu * T^i * Sigma^j of Heis_3."""
    if not mu:
        raise ValueError("mu must be nonzero")
    p = mu.p
    m = linalg.identity(3, p)
    for _ in range(i % 3):
        m = linalg.mat_mul(t_matrix(p), m)
    for _ in range(j % 3):
        m = linalg.mat_mul(m, sigma_matrix(p))
    return [[mu * c for c in row] for row in m]


def commutator_matrix(p: int):
    """[Sigma, T] = Sigma T Sigma^{-1} T^{-1} = w^2 * I.

    Note the exponent: for the displayed matrices the commutation
    relation is Sigma T = w^2 T Sigma, equivalently T Sigma = w Sigma T.
    """
    s, t = sigma_matrix(p), t_matrix(p)
    s_inv = linalg.mat_mul(s, s)  # Sigma^3 = I
    t_inv = linalg.mat_mul(t, t)
    return linalg.mat_mul(linalg.mat_mul(s, t), linalg.mat_mul(s_inv, t_inv))


def heis3_representation(g: HeisenbergElement, p: int):
    """The matrix of [sigma,tau]^r sigma^s tau^t in Heis_3 over F_p,
    under sigma -> Sigma, tau -> T, [sigma,tau] -> w^2 * I.

    A homomorphism: heis3_representation(g * h) equals the matrix
    product of the images (tested, not assumed).
    """
    if g.n != 3:
        raise ValueError("matrix realization is for H_3 only")
    c = commutator_matrix(p)
    acc = linalg.identity(3, p)
    for _ in range(g.r % 3):
        acc = linalg.mat_mul(acc, c)
    for _ in range(g.s % 3):
        acc = linalg.mat_mul(acc, sigma_matrix(p))
    for _ in range(g.t % 3):
        acc = linalg.mat_mul(acc, t_matrix(p))
    return acc


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
    """Sigma sends (a0, a1, a2) to (a2, a0, a1)."""
    return (a[2], a[0], a[1])


def t_action(a):
    """T sends (a0, a1, a2) to (a0, w*a1, w^2*a2)."""
    omega = primitive_root_of_unity(a[0].p, 3)
    return (a[0], omega * a[1], omega * omega * a[2])


def orbit(a) -> set[ProjectivePoint]:
    """The projective Heis_3 orbit {T^i Sigma^j a}; 9 points when
    a0*a1*a2 != 0."""
    a = tuple(a)
    if all(c.value == 0 for c in a):
        raise ValueError("orbit of the zero triple")
    out = set()
    for i in range(3):
        cur = a
        for _ in range(i):
            cur = t_action(cur)
        for _ in range(3):
            out.add(ProjectivePoint(cur))
            cur = sigma_action(cur)
    return out


# -- trace invariants and equivalence ----------------------------------


def _coefficient_matrices(a):
    """M_i = d(Moore matrix)/dx_i as scalar 3x3 matrices."""
    p = a[0].p
    z = f_zero(p)
    mats = []
    for i in range(3):
        mats.append(
            [
                [a[(r + c) % 3] if (r - c) % 3 == i else z for c in range(3)]
                for r in range(3)
            ]
        )
    return mats


def n_matrices(a):
    """N_i = M_0^{-1} M_i for i = 1, 2, with M_0 = diag(a0, a2, a1)."""
    a = tuple(a)
    if not (a[0] * a[1] * a[2]):
        raise ValueError("n_matrices needs a0*a1*a2 != 0")
    m0, m1, m2 = _coefficient_matrices(a)
    d_inv = [m0[i][i].inv() for i in range(3)]
    n1 = [[d_inv[i] * m1[i][j] for j in range(3)] for i in range(3)]
    n2 = [[d_inv[i] * m2[i][j] for j in range(3)] for i in range(3)]
    return n1, n2


def _trace(m) -> FieldElement:
    return m[0][0] + m[1][1] + m[2][2]


def trace_invariants(a):
    """(tr((N1 N2)^2), tr(N1^2 N2^2), tr(N1 N2 N1^2 N2^2)).

    Computed from the matrices and cross-checked against the closed
    rational expressions; a mismatch is an internal error.
    """
    a = tuple(a)
    n1, n2 = n_matrices(a)
    mm = linalg.mat_mul
    n12 = mm(n1, n2)
    n1sq = mm(n1, n1)
    n2sq = mm(n2, n2)
    t1 = _trace(mm(n12, n12))
    t2 = _trace(mm(n1sq, n2sq))
    t3 = _trace(mm(n12, mm(n1sq, n2sq)))
    c0, c1, c2 = a[0] ** 3, a[1] ** 3, a[2] ** 3
    sq = (a[0] * a[1] * a[2]) ** 2
    cu = (a[0] * a[1] * a[2]) ** 3
    closed = (
        (c0 * c0 + c1 * c1 + c2 * c2) / sq,
        (c0 * c1 + c0 * c2 + c1 * c2) / sq,
        (c0 * c0 * c1 + c1 * c1 * c2 + c2 * c2 * c0) / cu,
    )
    if (t1, t2, t3) != closed:
        raise AssertionError("trace invariants disagree with their closed forms")
    return t1, t2, t3


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
    """An F_p-valued class function on H_n."""

    def __init__(self, n: int, p: int, values: dict[HeisenbergElement, FieldElement]):
        self.n = n
        self.p = p
        self.values = values

    def __call__(self, g: HeisenbergElement) -> FieldElement:
        return self.values[g]

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(
            self.n, self.p, {g: self.values[g] * other.values[g] for g in self.values}
        )

    def scale(self, c: FieldElement) -> "ClassFunction":
        return ClassFunction(self.n, self.p, {g: c * v for g, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def inner_product(self, other: "ClassFunction") -> FieldElement:
        """(1/n^3) * sum_g self(g) * other(g^{-1}), in F_p."""
        total = f_zero(self.p)
        for g in hn_elements(self.n):
            total = total + self.values[g] * other.values[g.inverse()]
        return total / FieldElement(self.n ** 3, self.p)


def schrodinger_character(n: int, j: int, zeta: FieldElement) -> ClassFunction:
    """chi_j of H_n: zero off the subgroup s = 0, j*t = 0, and n*zeta^(j*r)
    on it."""
    p = zeta.p
    if pow(zeta.value, n, p) != 1 or any(
        pow(zeta.value, k, p) == 1 for k in range(1, n)
    ):
        raise ValueError("zeta must be a primitive n-th root of unity")
    values = {}
    for g in hn_elements(n):
        if g.s % n == 0 and (j * g.t) % n == 0:
            values[g] = FieldElement(n, p) * zeta ** ((j * g.r) % n)
        else:
            values[g] = f_zero(p)
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
    chi_n = schrodinger_character(n, j, zeta)
    chi_d = schrodinger_character(d, (j * m) % d, zeta ** m) if d > 1 else None
    mult = FieldElement(m, zeta.p)
    for g in hn_elements(d):
        image = HeisenbergElement(n, (m * m * g.r) % n, (m * g.s) % n, (m * g.t) % n)
        expected = (
            mult * chi_d(g)
            if chi_d is not None
            else FieldElement(n, zeta.p)  # H_1 is trivial; chi = n at its element
        )
        if chi_n(image) != expected:
            return False
    return True


# -- tensor decomposition on H_3 ---------------------------------------


def _tensor_tau(coeff, omega):
    """tau' = rho_1(tau) x rho_1(tau) scales the basis tensor x_i y_j by
    omega^(i+j); coeff[i][j] is a length-3 vector over the symbolic a."""
    return [
        [[omega ** ((i + j) % 3) * c for c in coeff[i][j]] for j in range(3)]
        for i in range(3)
    ]


def _tensor_sigma(coeff):
    """sigma' = rho_1(sigma) x rho_1(sigma) sends x_i y_j to x_{i-1} y_{j-1}."""
    return [[coeff[(i + 1) % 3][(j + 1) % 3] for j in range(3)] for i in range(3)]


def _tensor_scale(coeff, c: FieldElement):
    return [[[c * v for v in cell] for cell in row] for row in coeff]


def _schrodinger_tensor_basis(p: int):
    """f_0 = a0 x0 y0 + a1 x2 y1 + a2 x1 y2 and f_{-i} = sigma'^i(f_0),
    with coefficients kept linear in the symbolic a (vectors in F_p^3)."""
    z, o = f_zero(p), f_one(p)
    zero_vec = [z, z, z]
    f0 = [[list(zero_vec) for _ in range(3)] for _ in range(3)]
    f0[0][0][0] = o  # a0 x0 y0
    f0[2][1][1] = o  # a1 x2 y1
    f0[1][2][2] = o  # a2 x1 y2
    f1 = _tensor_sigma(_tensor_sigma(f0))  # f_1 = sigma'^2 (f_0) = sigma'^{-1}(f_0)
    f2 = _tensor_sigma(f0)  # f_2 = sigma'(f_0)
    return f0, f1, f2


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
    if chi1 * chi1 != chi2.scale(FieldElement(3, p)):
        return False
    omega = zeta
    f0, f1, f2 = _schrodinger_tensor_basis(p)
    eigen = [f_one(p), omega * omega, omega]
    for f, ev in zip((f0, f1, f2), eigen):
        if _tensor_tau(f, omega) != _tensor_scale(f, ev):
            return False
    # displayed formulas: f1 = a2 x2 y0 + a0 x1 y1 + a1 x0 y2,
    #                     f2 = a1 x1 y0 + a2 x0 y1 + a0 x2 y2
    z, o = f_zero(p), f_one(p)
    expected_f1 = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    expected_f1[2][0][2] = o
    expected_f1[1][1][0] = o
    expected_f1[0][2][1] = o
    expected_f2 = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    expected_f2[1][0][1] = o
    expected_f2[0][1][2] = o
    expected_f2[2][2][0] = o
    if [f1, f2] != [expected_f1, expected_f2]:
        return False
    # a = e_0, e_1, e_2 give three independent copies: nine independent tensors
    vectors = []
    for k in range(3):
        for f in (f0, f1, f2):
            vectors.append([f[i][j][k].value for i in range(3) for j in range(3)])
    return linalg.rank_mod(vectors, p) == 9
