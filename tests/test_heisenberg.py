import importlib

import pytest

from hesse_moore import linalg
from hesse_moore.field import FieldElement, primitive_root_of_unity
from hesse_moore.heisenberg import (
    HeisenbergElement,
    are_equivalent,
    heis3_matrix,
    heis3_representation,
    hn_elements,
    n_matrices,
    orbit,
    schrodinger_character,
    sigma_action,
    t_action,
    trace_invariants,
    verify_restriction,
    verify_tensor_h3,
)
from hesse_moore.hesse import HesseCurve
from hesse_moore.moore import ProjectivePoint

heis_mod = importlib.import_module("hesse_moore.heisenberg")

P = 13


def F(v):
    return FieldElement(v, P)


def T3(vals):
    return tuple(F(v) for v in vals)


class TestNormalForm:
    def test_group_orders(self):
        assert len(hn_elements(3)) == 27
        assert len(hn_elements(6)) == 216

    def test_normal_form_reduction(self):
        g = HeisenbergElement(3, 4, -1, 7)
        assert (g.r, g.s, g.t) == (1, 2, 1)

    def test_sigma_tau_commutation_shift(self):
        sigma = HeisenbergElement(3, 0, 1, 0)
        tau = HeisenbergElement(3, 0, 0, 1)
        st = sigma * tau
        ts = tau * sigma
        assert (st.s, st.t) == (ts.s, ts.t) == (1, 1)
        assert (st.r - ts.r) % 3 == 1  # sigma tau = [sigma,tau] tau sigma

    def test_group_axioms_exhaustive_h3(self):
        e = HeisenbergElement(3, 0, 0, 0)
        els = hn_elements(3)
        for g in els:
            assert g * g.inverse() == e
            assert g.inverse() * g == e
        # associativity on a slice
        for g in els[:6]:
            for h in els[:6]:
                for k in els[:6]:
                    assert (g * h) * k == g * (h * k)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            HeisenbergElement(3, 0, 1, 0) * HeisenbergElement(6, 0, 1, 0)


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def mm(a, b, p=P):
    return linalg.mat_mul_mod(a, b, p)


def reference_generators(p):
    """Sigma, T and [Sigma, T] = Sigma T Sigma^2 T^2 written out and
    multiplied, independent of the closed forms."""
    w = primitive_root_of_unity(p, 3)
    s = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    t = [[1, 0, 0], [0, w, 0], [0, 0, w * w % p]]
    c = mm(mm(s, t, p), mm(mm(s, s, p), mm(t, t, p), p), p)
    return s, t, c


def reference_heis3_matrix(mu, i, j, p):
    """mu * T^i * Sigma^j as a product of generator powers."""
    s, t, _ = reference_generators(p)
    m = IDENTITY
    for _ in range(i % 3):
        m = mm(t, m, p)
    for _ in range(j % 3):
        m = mm(m, s, p)
    return [[mu * x % p for x in row] for row in m]


def reference_representation(g, p):
    """[Sigma,T]^r Sigma^s T^t as a product of generator powers."""
    s, t, c = reference_generators(p)
    acc = IDENTITY
    for gen, k in ((c, g.r), (s, g.s), (t, g.t)):
        for _ in range(k % 3):
            acc = mm(acc, gen, p)
    return acc


def reference_n_matrices(a):
    """M_0^{-1} M_i with M_i = d(Moore matrix)/dx_i, entry by entry."""
    p = a[0].p
    v = [c.value for c in a]
    mats = [
        [[v[(r + c) % 3] if (r - c) % 3 == i else 0 for c in range(3)] for r in range(3)]
        for i in range(3)
    ]
    d_inv = [pow(mats[0][r][r], p - 2, p) for r in range(3)]
    return tuple(
        [[d_inv[r] * mats[i][r][c] % p for c in range(3)] for r in range(3)] for i in (1, 2)
    )


def heis_sigma(p):
    return heis3_matrix(1, 0, 1, p)


def heis_t(p):
    return heis3_matrix(1, 1, 0, p)


def heis_commutator(p):
    """The matrix of [sigma, tau] as the product of the representations
    of sigma, tau, sigma^-1 and tau^-1."""
    sigma, tau = HeisenbergElement(3, 0, 1, 0), HeisenbergElement(3, 0, 0, 1)
    m = IDENTITY
    for g in (sigma, tau, sigma.inverse(), tau.inverse()):
        m = mm(m, heis3_representation(g, p), p)
    return m


class TestMatrices:
    def test_t_matrix_frozen(self):
        # omega = 3 over F_13
        assert heis_t(P) == [[1, 0, 0], [0, 3, 0], [0, 0, 9]]
        assert heis_sigma(P) == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_orders(self):
        s, t = heis_sigma(P), heis_t(P)
        assert mm(s, mm(s, s)) == IDENTITY
        assert mm(t, mm(t, t)) == IDENTITY

    def test_commutation_relation(self):
        # Sigma T = w^2 T Sigma for the displayed matrices (and not w T Sigma)
        w = primitive_root_of_unity(P, 3)
        s, t = heis_sigma(P), heis_t(P)
        st = mm(s, t)
        ts = mm(t, s)
        assert st == [[w * w * x % P for x in row] for row in ts]
        assert st != [[w * x % P for x in row] for row in ts]

    def test_commutator_matrix_is_scalar(self):
        w = primitive_root_of_unity(P, 3)
        expect = [[w * w % P if i == j else 0 for j in range(3)] for i in range(3)]
        assert heis_commutator(P) == expect
        assert heis3_representation(HeisenbergElement(3, 1, 0, 0), P) == expect

    def test_representation_is_homomorphism(self):
        els = hn_elements(3)
        for g in els:
            for h in els[:9]:
                lhs = heis3_representation(g * h, P)
                rhs = mm(heis3_representation(g, P), heis3_representation(h, P))
                assert lhs == rhs

    def test_heis3_matrix(self):
        s, t, _ = reference_generators(P)
        assert heis3_matrix(1, 0, 0, P) == IDENTITY
        assert heis3_matrix(1, 1, 0, P) == t
        assert heis3_matrix(1, 0, 1, P) == s
        scaled = heis3_matrix(5, 0, 0, P)
        assert scaled[0][0] == 5
        with pytest.raises(ValueError):
            heis3_matrix(0, 1, 1, P)

    @pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43, 2**61 - 1])
    def test_closed_forms_match_generator_products(self, p):
        s, t, c = reference_generators(p)
        assert (heis_sigma(p), heis_t(p), heis_commutator(p)) == (s, t, c)
        w = primitive_root_of_unity(p, 3)
        assert mm(s, t, p) == [[w * w * x % p for x in row] for row in mm(t, s, p)]
        for mu in (1, 2, p - 1):
            for i in range(-1, 4):
                for j in range(-1, 4):
                    want = reference_heis3_matrix(mu, i, j, p)
                    assert heis3_matrix(mu, i, j, p) == want
        els = hn_elements(3)
        for g in els:
            assert heis3_representation(g, p) == reference_representation(g, p)
            for h in els:
                prod = mm(heis3_representation(g, p), heis3_representation(h, p), p)
                assert heis3_representation(g * h, p) == prod

    @pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
    def test_invariants_match_reference_and_orbit(self, p):
        for vals in ((1, 2, 3), (1, 1, p - 2), (3, 5, 6)):
            a = tuple(FieldElement(v, p) for v in vals)
            assert n_matrices(a) == reference_n_matrices(a)
            base = trace_invariants(a)
            assert all(isinstance(x, int) and 0 <= x < p for x in base)
            for pt in orbit(a):
                assert trace_invariants(pt.coords) == base


class TestActions:
    def test_actions_frozen(self):
        a = T3((1, 2, 3))
        assert sigma_action(a) == T3((3, 1, 2))
        # omega = 3: (a0, 3*a1, 9*a2) = (1, 6, 27=1)
        assert t_action(a) == T3((1, 6, 1))

    def test_orbit_size_and_membership(self):
        a = T3((1, 2, 3))
        orb = orbit(a)
        assert len(orb) == 9
        assert ProjectivePoint(a) in orb
        assert ProjectivePoint(sigma_action(t_action(a))) in orb

    def test_actions_preserve_curve(self):
        curve = HesseCurve.from_lambda(6, 13)
        for pt in orbit(T3((1, 2, 3))):
            assert curve.contains(pt)


class TestInvariants:
    def test_n_matrix_sparse_pattern(self):
        # N1: entry (0,2) = a2/a0, (1,0) = a1/a2, (2,1) = a0/a1
        a = T3((1, 2, 3))
        n1, n2 = n_matrices(a)
        assert n1 == [
            [0, 0, 3],   # a2/a0 = 3
            [5, 0, 0],   # a1/a2 = 2/3 = 5
            [0, 7, 0],   # a0/a1 = 1/2 = 7
        ]
        # M0 N1 = M1 reconstruction
        m0 = [[1, 0, 0], [0, 3, 0], [0, 0, 2]]
        assert mm(m0, n1) == [[0, 0, 3], [2, 0, 0], [0, 1, 0]]
        with pytest.raises(ValueError, match="a0\\*a1\\*a2 != 0"):
            n_matrices(T3((0, 1, 12)))

    def test_trace_invariants_frozen(self):
        assert trace_invariants(T3((1, 2, 3))) == (4, 3, 1)

    def test_closed_form_mismatch_is_internal_error(self, monkeypatch):
        # the matrix path is cross-checked: a wrong product must not pass
        real = linalg.mat_mul_mod

        def off_by_one(a, b, p):
            m = real(a, b, p)
            m[0][0] = (m[0][0] + 1) % p
            return m

        monkeypatch.setattr(linalg, "mat_mul_mod", off_by_one)
        with pytest.raises(AssertionError, match="closed forms"):
            trace_invariants(T3((1, 2, 3)))

    def test_invariance_over_orbit(self):
        a = T3((1, 2, 3))
        base = trace_invariants(a)
        for pt in orbit(a):
            assert trace_invariants(pt.coords) == base

    def test_are_equivalent(self):
        a = T3((1, 2, 3))
        assert are_equivalent(a, sigma_action(a))
        assert are_equivalent(a, t_action(a))
        # a point on a different curve is never equivalent
        assert not are_equivalent(a, T3((1, 1, 2)))
        with pytest.raises(ValueError):
            are_equivalent(a, T3((0, 1, 12)))

    def test_equivalence_matches_tripling(self):
        curve = HesseCurve.from_lambda(6, 13)
        pts = [a for a in curve.enumerate_points() if a.coordinate_product()]
        for a in pts:
            for b in pts:
                same = are_equivalent(a.coords, b.coords)
                assert same == (curve.triple(a) == curve.triple(b))


class TestCharacters:
    def test_character_values(self):
        zeta = primitive_root_of_unity(P, 3)
        chi = schrodinger_character(3, 1, zeta, P)
        assert chi(HeisenbergElement(3, 0, 0, 0)) == 3
        assert chi(HeisenbergElement(3, 0, 1, 0)) == 0  # s != 0
        assert chi(HeisenbergElement(3, 0, 0, 1)) == 0  # j*t != 0
        assert chi(HeisenbergElement(3, 1, 0, 0)) == 3 * zeta % P
        assert all(isinstance(v, int) and 0 <= v < P for v in chi.values.values())

    def test_bad_zeta_rejected(self):
        with pytest.raises(ValueError):
            schrodinger_character(3, 1, 1, P)
        with pytest.raises(ValueError):
            schrodinger_character(6, 1, primitive_root_of_unity(P, 3), P)

    @pytest.mark.parametrize("n", [3, 6])
    def test_orthogonality(self, n):
        import math

        zeta = primitive_root_of_unity(P, n)
        units = [j for j in range(1, n) if math.gcd(j, n) == 1]
        chars = {j: schrodinger_character(n, j, zeta, P) for j in units}
        for i in units:
            for j in units:
                ip = chars[i].inner_product(chars[j])
                assert ip == (1 if i == j else 0)

    def test_class_functions_need_one_modulus_and_group(self):
        # chi_0 of H_3 has the same values over F_7 and F_13
        chi7, chi13 = (
            schrodinger_character(3, 0, primitive_root_of_unity(q, 3), q) for q in (7, 13)
        )
        assert chi7.values == chi13.values
        assert chi7 != chi13
        assert chi13 == schrodinger_character(3, 0, primitive_root_of_unity(13, 3), 13)
        for op in (chi7.__mul__, chi7.inner_product):
            with pytest.raises(ValueError, match="modulus mismatch: 7 vs 13"):
                op(chi13)
        chi6 = schrodinger_character(6, 0, primitive_root_of_unity(13, 6), 13)
        assert chi13 != chi6
        for op in (chi13.__mul__, chi13.inner_product):
            with pytest.raises(ValueError, match="group mismatch: H_3 vs H_6"):
                op(chi6)

    def test_class_function_constant_on_conjugacy_classes(self):
        zeta = primitive_root_of_unity(P, 3)
        chi = schrodinger_character(3, 1, zeta, P)
        for g in hn_elements(3):
            for h in hn_elements(3)[:9]:
                assert chi(h * g * h.inverse()) == chi(g)

    @pytest.mark.parametrize("n,d,j", [(6, 3, 1), (6, 2, 1), (3, 3, 1), (3, 3, 2), (6, 6, 5)])
    def test_restriction(self, n, d, j):
        assert verify_restriction(n, d, j, P)

    @pytest.mark.parametrize("p", [13, 2**61 - 1])
    def test_restriction_to_the_trivial_group(self, p):
        # H_1 -> H_n: chi_j of H_n at the identity is n, which the general
        # rule gives as n * chi_0 of H_1
        for n in (1, 2, 3, 6):
            for j in range(-2, 7):
                assert verify_restriction(n, 1, j, p)

    def test_restriction_preconditions(self):
        with pytest.raises(ValueError):
            verify_restriction(6, 4, 1, P)  # 4 does not divide 6
        with pytest.raises(ValueError):
            verify_restriction(4, 2, 1, P)  # gcd(2,2) != 1
        # H_d is empty for d < 1, so the loop used to pass vacuously (d < 0)
        # or fail on n % 0 (d = 0)
        for d in (0, -3):
            with pytest.raises(ValueError, match=f"got d = {d}$"):
                verify_restriction(6, d, 1, P)

    def test_tensor_h3(self):
        assert verify_tensor_h3(P)
        assert verify_tensor_h3(7)

    @pytest.mark.parametrize("wrong", [{(0, 2): (0, 1)}, {(1, 0): (2, 0)}])
    def test_tensor_h3_fails_with_the_wrong_powers(self, monkeypatch, wrong):
        # Sigma standing in for Sigma^2, or T^2 for T, breaks the check
        right = heis_mod.heis3_matrix
        monkeypatch.setattr(
            heis_mod, "heis3_matrix", lambda mu, i, j, p: right(mu, *wrong.get((i, j), (i, j)), p)
        )
        for p in (7, P, 19, 2**61 - 1):
            assert not verify_tensor_h3(p)
