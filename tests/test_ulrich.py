import pytest

from hesse_moore.field import FieldElement, zero
from hesse_moore.hesse import HesseCurve, curve_through, extension_representative, iota
from hesse_moore.moore import (
    FormMatrix,
    ProjectivePoint,
    coordinate_vars,
    moore,
    moore_adjugate,
    moore_det,
)
from hesse_moore.poly import HomForm, monomials
from hesse_moore.ulrich import (
    FactorizationError,
    MatrixFactorization,
    bcb_congruence,
    bcb_divisible,
    divergence,
    moore_factorization,
    partner_D,
    rank2_ulrich,
    recover_C,
    trace_criterion,
)

P = 13


def F(v):
    return FieldElement(v, P)


def T(vals):
    return tuple(F(v) for v in vals)


A_POINT = T((1, 2, 3))


def random_linear_matrix(rng, p=P):
    def form():
        coeffs = {}
        for e in monomials(1):
            c = FieldElement(rng.randrange(p), p)
            if c.value:
                coeffs[e] = c
        return HomForm(1, p, coeffs)

    return FormMatrix([[form() for _ in range(3)] for _ in range(3)])


@pytest.fixture(scope="module")
def fac():
    return moore_factorization(A_POINT)


def test_factorization_certified(fac):
    # the constructor already certifies A*B = B*A = f*I; spot-check f
    assert fac.size == 3
    assert fac.f.lam == F(6)
    assert fac.B == moore_adjugate(A_POINT).scale(F(6).inv())


@pytest.mark.parametrize("p", [13, 19, 37])
def test_det_identity_is_the_factorization_curve(p, rng):
    # det M_{a,x} = a0*a1*a2 * f, with f the curve the factorization certifies
    checked = 0
    while checked < 10:
        a = tuple(FieldElement(rng.randrange(1, p), p) for _ in range(3))
        try:
            curve = curve_through(ProjectivePoint(a))
        except ValueError:
            continue  # singular lambda
        fac = moore_factorization(a)
        assert isinstance(fac.f, HesseCurve)
        assert fac.f == curve
        assert moore_det(a) == fac.f.form.scale(a[0] * a[1] * a[2])
        checked += 1


def test_bad_factorization_rejected(fac):
    with pytest.raises(ValueError):
        MatrixFactorization(3, fac.A, fac.B.scale(F(2)), fac.f)


def test_preconditions():
    with pytest.raises(ValueError):
        moore_factorization(T((0, 1, 12)))  # zero coordinate
    with pytest.raises(ValueError):
        moore_factorization(T((1, 1, 1)))  # lambda = 3 is singular


def test_partner_of_A_is_minus_B(fac):
    D = partner_D(fac, fac.A)
    assert D == -fac.B
    assert recover_C(fac, D) == fac.A
    assert trace_criterion(fac, fac.A)  # tr(BA) = 3f = 0 mod f


def test_partner_of_zero(fac):
    zero_mat = fac.A - fac.A
    assert partner_D(fac, zero_mat).is_zero()
    assert recover_C(fac, partner_D(fac, zero_mat)).is_zero()


def test_extension_triple_has_partner(fac):
    C = moore(extension_representative(A_POINT))
    assert trace_criterion(fac, C)
    assert bcb_divisible(fac, C)
    D = partner_D(fac, C)  # verifies AD + CB = 0 = DA + BC internally
    assert recover_C(fac, D) == C


def test_untwisted_doubling_triple_fails(fac):
    # the iota twist matters: the raw doubling representative of 2*a
    # does not satisfy the trace criterion
    b = iota(extension_representative(A_POINT))
    C = moore(b)
    assert not trace_criterion(fac, C)
    with pytest.raises(FactorizationError):
        partner_D(fac, C)


def test_random_C_has_no_partner(fac, rng):
    failures = 0
    for _ in range(10):
        C = random_linear_matrix(rng)
        if trace_criterion(fac, C):
            continue  # astronomically unlikely, but not an error
        failures += 1
        with pytest.raises(FactorizationError):
            partner_D(fac, C)
    assert failures > 0


def test_trace_criterion_matches_divisibility(fac, rng):
    for _ in range(25):
        C = random_linear_matrix(rng)
        assert trace_criterion(fac, C) == bcb_divisible(fac, C)


def test_bcb_congruence(fac, rng):
    for k in range(25):
        C = random_linear_matrix(rng)
        assert bcb_congruence(fac, C)
    # also at degree 0 and 2 via scaling by forms
    x0 = HomForm.variable(0, P)
    assert bcb_congruence(fac, fac.A.scale_form(x0))


def test_divergence_values():
    x = coordinate_vars(P)
    assert divergence(x) == F(3)
    assert divergence(iota(x)) == F(1)
    assert divergence((x[1], x[2], x[0])) == zero(P)
    with pytest.raises(ValueError):
        divergence((x[0] * x[0], x[1] * x[1], x[2] * x[2]))


def test_rank2_blocks():
    blocks = rank2_ulrich(A_POINT)
    assert blocks.factorization.size == 6
    assert blocks.divergence == F(3)
    assert tuple(c.value for c in blocks.extension_triple) == (6, 0, 8)
    # block structure: upper-left and lower-right are A, lower-left is 0
    A2 = blocks.factorization.A
    base = blocks.base.A
    for i in range(3):
        for j in range(3):
            assert A2.entries[i][j] == base.entries[i][j]
            assert A2.entries[3 + i][3 + j] == base.entries[i][j]
            assert A2.entries[3 + i][j].is_zero()
            assert A2.entries[i][3 + j] == blocks.C.entries[i][j]


def test_rank2_on_other_points():
    for vals in ((1, 1, 2), (1, 5, 9)):
        blocks = rank2_ulrich(T(vals))
        assert blocks.divergence == F(3)
