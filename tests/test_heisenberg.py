import pytest

from hesse_moore import linalg
from hesse_moore.field import FieldElement, one, primitive_root_of_unity, zero
from hesse_moore.heisenberg import (
    HeisenbergElement,
    are_equivalent,
    commutator_matrix,
    conjugation_identities,
    heis3_matrix,
    heis3_representation,
    hn_elements,
    hn_identity,
    n_matrices,
    orbit,
    schrodinger_character,
    sigma_action,
    sigma_matrix,
    t_action,
    t_matrix,
    trace_invariants,
    verify_restriction,
    verify_tensor_h3,
)
from hesse_moore.hesse import HesseCurve
from hesse_moore.moore import ProjectivePoint

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
        e = hn_identity(3)
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


class TestMatrices:
    def test_t_matrix_frozen(self):
        # omega = 3 over F_13
        assert t_matrix(P) == [
            [F(1), F(0), F(0)],
            [F(0), F(3), F(0)],
            [F(0), F(0), F(9)],
        ]

    def test_orders(self):
        s, t = sigma_matrix(P), t_matrix(P)
        i = linalg.identity(3, P)
        assert linalg.mat_mul(s, linalg.mat_mul(s, s)) == i
        assert linalg.mat_mul(t, linalg.mat_mul(t, t)) == i

    def test_commutation_relation(self):
        # Sigma T = w^2 T Sigma for the displayed matrices (and not w T Sigma)
        w = primitive_root_of_unity(P, 3)
        s, t = sigma_matrix(P), t_matrix(P)
        st = linalg.mat_mul(s, t)
        ts = linalg.mat_mul(t, s)
        assert st == [[w * w * x for x in row] for row in ts]
        assert st != [[w * x for x in row] for row in ts]

    def test_commutator_matrix_is_scalar(self):
        w = primitive_root_of_unity(P, 3)
        expect = [[w * w if i == j else zero(P) for j in range(3)] for i in range(3)]
        assert commutator_matrix(P) == expect

    def test_representation_is_homomorphism(self):
        els = hn_elements(3)
        for g in els:
            for h in els[:9]:
                lhs = heis3_representation(g * h, P)
                rhs = linalg.mat_mul(
                    heis3_representation(g, P), heis3_representation(h, P)
                )
                assert lhs == rhs

    def test_heis3_matrix(self):
        assert heis3_matrix(one(P), 0, 0) == linalg.identity(3, P)
        assert heis3_matrix(one(P), 1, 0) == t_matrix(P)
        assert heis3_matrix(one(P), 0, 1) == sigma_matrix(P)
        scaled = heis3_matrix(F(5), 0, 0)
        assert scaled[0][0] == F(5)
        with pytest.raises(ValueError):
            heis3_matrix(zero(P), 1, 1)


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

    def test_conjugation_identities_symbolic(self, rng):
        for _ in range(10):
            a = tuple(F(rng.randrange(1, P)) for _ in range(3))
            assert conjugation_identities(a)


class TestInvariants:
    def test_n_matrix_sparse_pattern(self):
        # N1: entry (0,2) = a2/a0, (1,0) = a1/a2, (2,1) = a0/a1
        a = T3((1, 2, 3))
        n1, n2 = n_matrices(a)
        z = zero(P)
        assert n1 == [
            [z, z, F(3)],          # a2/a0 = 3
            [F(2) / F(3), z, z],   # a1/a2
            [z, F(1) / F(2), z],   # a0/a1
        ]
        # M0 N1 = M1 reconstruction
        m0 = [[F(1), z, z], [z, F(3), z], [z, z, F(2)]]
        m1 = linalg.mat_mul(m0, n1)
        assert m1[0][2] == F(3) and m1[1][0] == F(2) and m1[2][1] == F(1)

    def test_trace_invariants_frozen(self):
        assert trace_invariants(T3((1, 2, 3))) == (F(4), F(3), F(1))

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
        chi = schrodinger_character(3, 1, zeta)
        assert chi(hn_identity(3)) == F(3)
        assert chi(HeisenbergElement(3, 0, 1, 0)).is_zero()  # s != 0
        assert chi(HeisenbergElement(3, 0, 0, 1)).is_zero()  # j*t != 0
        assert chi(HeisenbergElement(3, 1, 0, 0)) == F(3) * zeta

    def test_bad_zeta_rejected(self):
        with pytest.raises(ValueError):
            schrodinger_character(3, 1, one(P))
        with pytest.raises(ValueError):
            schrodinger_character(6, 1, primitive_root_of_unity(P, 3))

    @pytest.mark.parametrize("n", [3, 6])
    def test_orthogonality(self, n):
        import math

        zeta = primitive_root_of_unity(P, n)
        units = [j for j in range(1, n) if math.gcd(j, n) == 1]
        chars = {j: schrodinger_character(n, j, zeta) for j in units}
        for i in units:
            for j in units:
                ip = chars[i].inner_product(chars[j])
                assert ip == (one(P) if i == j else zero(P))

    def test_class_function_constant_on_conjugacy_classes(self):
        zeta = primitive_root_of_unity(P, 3)
        chi = schrodinger_character(3, 1, zeta)
        for g in hn_elements(3):
            for h in hn_elements(3)[:9]:
                assert chi(h * g * h.inverse()) == chi(g)

    @pytest.mark.parametrize("n,d,j", [(6, 3, 1), (6, 2, 1), (3, 3, 1), (3, 3, 2), (6, 6, 5)])
    def test_restriction(self, n, d, j):
        zeta = primitive_root_of_unity(P, n)
        assert verify_restriction(n, d, j, zeta)

    def test_restriction_preconditions(self):
        zeta6 = primitive_root_of_unity(P, 6)
        with pytest.raises(ValueError):
            verify_restriction(6, 4, 1, zeta6)  # 4 does not divide 6
        with pytest.raises(ValueError):
            verify_restriction(4, 2, 1, primitive_root_of_unity(P, 4))  # gcd(2,2) != 1

    def test_tensor_h3(self):
        assert verify_tensor_h3(primitive_root_of_unity(P, 3))
        assert verify_tensor_h3(primitive_root_of_unity(7, 3))
