import pytest

import hesse_moore.poly as poly
import hesse_moore.ulrich as ulrich_mod
from hesse_moore.field import FieldElement
from hesse_moore.hesse import HesseCurve, curve_through, extension_representative, iota
from hesse_moore.moore import (
    FormMatrix,
    ProjectivePoint,
    coordinate_vars,
    is_scalar_product,
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
    assert fac.A.n == 3
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
        MatrixFactorization(fac.A, fac.B.scale(F(2)), fac.f)
    # f on the diagonal is not enough: every other entry of A*B must vanish
    f, zero = fac.f.form, HomForm.zero(3, P)
    identity = FormMatrix.from_scalars([[int(i == j) for j in range(3)] for i in range(3)], P)
    f_identity = [[f if i == j else zero for j in range(3)] for i in range(3)]
    assert MatrixFactorization(identity, FormMatrix(f_identity), fac.f).A.n == 3
    f_identity[0][1] = f
    with pytest.raises(ValueError, match="not a matrix factorization"):
        MatrixFactorization(identity, FormMatrix(f_identity), fac.f)


def test_extension_identities_are_checked(fac, monkeypatch):
    # the identities hold whenever A*B = B*A = f*I; a faulty fused product
    # N*Y + X*M, here one that drops X*M, must still be caught, not
    # returned as a partner
    product_row = ulrich_mod.product_row
    monkeypatch.setattr(ulrich_mod, "product_row", lambda pairs: product_row(pairs[:1]))
    with pytest.raises(AssertionError, match="partner does not satisfy"):
        partner_D(fac, fac.A)
    with pytest.raises(AssertionError, match="partner does not satisfy"):
        recover_C(fac, -fac.B)
    # and a faulty Y*q, the third single product of a solve (after M*X
    # and X*(M*X))
    calls = []

    def third_product_moved(pairs):
        row = product_row(pairs)
        if len(pairs) > 1:
            return row
        calls.append(pairs)
        return [row[0] + 1, *row[1:]] if len(calls) == 3 else row

    monkeypatch.setattr(ulrich_mod, "product_row", third_product_moved)
    for solve in (lambda: partner_D(fac, fac.A), lambda: recover_C(fac, -fac.B)):
        calls.clear()
        with pytest.raises(AssertionError, match="partner does not satisfy"):
            solve()
        assert len(calls) == 3


def test_forms_built(fac, monkeypatch):
    # every form goes through poly._with_terms once.  A factorization
    # builds its 27 entries and the cubic, a partner M*X, the quotient q
    # and N = -q; the certificates compare int rows and build none
    built = []
    with_terms = poly._with_terms
    monkeypatch.setattr(poly, "_with_terms", lambda *args: built.append(1) or with_terms(*args))

    def count(call):
        built.clear()
        out = call()
        return len(built), out

    assert count(lambda: moore_factorization(A_POINT))[0] == 27 + 1
    assert count(lambda: partner_D(fac, fac.A))[0] == 3 * 9
    # and a rank-2 block: C, two zero forms, the coordinate variables
    built_rank2, blocks = count(lambda: rank2_ulrich(A_POINT))
    assert built_rank2 == 28 + 9 + 27 + 2 + 3
    for certified in (fac, blocks.factorization):
        assert count(lambda: MatrixFactorization(certified.A, certified.B, certified.f))[0] == 0
        A, B, form = certified.A, certified.B, certified.f.form
        assert count(lambda: is_scalar_product([(A, B)], form)) == (0, True)
        assert count(lambda: is_scalar_product([(B, A)], form)) == (0, True)


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


def test_constant_D_has_no_C(fac):
    # A*D*A has degree 2 for a constant D, so f*C = -A*D*A has no solution
    zero_D = FormMatrix.from_scalars([[0] * 3] * 3, P)
    with pytest.raises(FactorizationError, match="D has degree 0, so C would have degree -1"):
        recover_C(fac, zero_D)
    with pytest.raises(FactorizationError, match="D has degree 0"):
        recover_C(fac, FormMatrix.from_scalars([[1, 0, 0], [0, 1, 0], [0, 0, 1]], P))


def test_linear_D_off_the_partners_has_no_C(fac):
    # A*D*A for D = x0 * E_00 is x0 times a product of monomials: f cannot divide it
    x0, z = HomForm.variable(0, P), HomForm.zero(1, P)
    D = FormMatrix([[x0, z, z], [z, z, z], [z, z, z]])
    with pytest.raises(FactorizationError, match="^no C for this D: f does not divide A\\*D\\*A$"):
        recover_C(fac, D)


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
    assert divergence(x) == 3
    assert divergence(iota(x)) == 1
    assert divergence((x[1], x[2], x[0])) == 0
    with pytest.raises(ValueError):
        divergence((x[0] * x[0], x[1] * x[1], x[2] * x[2]))
    # the divergence of M_{b,y} needs exactly one linear form per variable
    for y in (x[:2], x + (x[0],)):
        with pytest.raises(ValueError, match=f"expects three linear forms, got {len(y)}"):
            divergence(y)


def test_rank2_blocks():
    blocks = rank2_ulrich(A_POINT)
    assert blocks.factorization.A.n == 6
    assert blocks.divergence == F(3)
    assert tuple(c.value for c in blocks.extension_triple) == (6, 0, 8)
    # the rank-1 factorization it extends is kept
    assert blocks.rank1 == moore_factorization(A_POINT)
    # block structure: upper-left and lower-right are A, lower-left is 0
    A2 = blocks.factorization.A
    base = blocks.rank1.A
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
