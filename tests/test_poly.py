import pytest

from hesse_moore.field import FieldElement, one, zero
from hesse_moore.poly import (
    HesseCubicForm,
    HomForm,
    divide,
    divide_by_cubic,
    divides,
    monomials,
    sum_of_products,
)

P = 13


def F(v):
    return FieldElement(v, P)


def random_form(degree, rng, p=P):
    coeffs = {}
    for e in monomials(degree):
        c = FieldElement(rng.randrange(p), p)
        if c.value:
            coeffs[e] = c
    return HomForm(degree, p, coeffs)


def test_monomials_graded_lex():
    assert monomials(0) == [(0, 0, 0)]
    assert monomials(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomials(2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    ]
    assert monomials(-1) == []
    # counts are binomial(d+2, 2)
    for d in range(7):
        assert len(monomials(d)) == (d + 2) * (d + 1) // 2


def test_constructor_rejects_wrong_degree():
    with pytest.raises(ValueError):
        HomForm(2, P, {(1, 0, 0): F(1)})
    with pytest.raises(ValueError):
        HomForm(-1, P)


def test_add_mul_against_hand_example():
    x0 = HomForm.variable(0, P)
    x1 = HomForm.variable(1, P)
    f = x0 + x1
    g = x0 - x1
    prod = f * g  # x0^2 - x1^2
    assert prod.coefficient((2, 0, 0)) == one(P)
    assert prod.coefficient((0, 2, 0)) == -one(P)
    assert prod.coefficient((1, 1, 0)) == zero(P)
    with pytest.raises(ValueError):
        f + prod  # degree mismatch


def test_mul_commutative_associative(rng):
    for _ in range(20):
        f = random_form(1, rng)
        g = random_form(2, rng)
        h = random_form(1, rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h * h) == f * g + f * (h * h)


def test_partial_derivative():
    # d/dx0 of x0^3 = 3 x0^2; d/dx1 of x0^3 = 0
    cube = HomForm.monomial(F(1), (3, 0, 0))
    assert cube.partial(0) == HomForm.monomial(F(3), (2, 0, 0))
    assert cube.partial(1).is_zero()
    with pytest.raises(ValueError):
        cube.partial(3)


def test_evaluate(rng):
    f = random_form(3, rng)
    pt = tuple(F(v) for v in (2, 5, 7))
    expected = zero(P)
    for e, c in f.coeffs.items():
        expected = expected + c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
    assert f.evaluate(pt) == expected


def test_serialize_parse_roundtrip(rng):
    for d in range(4):
        for _ in range(10):
            f = random_form(d, rng)
            assert HomForm.parse(f.serialize(), d, P) == f
    assert HomForm.zero(2, P).serialize() == "0"
    assert HomForm.parse("0", 2, P).is_zero()


def test_division_certificate(rng):
    f = HesseCubicForm(F(6)).form
    for gdeg in (3, 4, 5):
        for _ in range(10):
            g = random_form(gdeg, rng)
            q, r = divide(g, f)
            assert q * f + r == g
            # canonical remainder: no monomial divisible by LM(f) = x0^3
            assert all(e[0] < 3 for e in r.coeffs)


def reference_divide(g, f):
    """Division by repeated subtraction of leading terms, on whole forms."""
    lm, lc = f.leading()
    q = HomForm.zero(max(g.degree - f.degree, 0), g.p)
    r = HomForm.zero(g.degree, g.p)
    work = g
    while not work.is_zero():
        exps, c = work.leading()
        diff = tuple(x - y for x, y in zip(exps, lm))
        if min(diff) >= 0:
            t = HomForm.monomial(c / lc, diff)
            q = q + t
            work = work - t * f
        else:
            mono = HomForm.monomial(c, exps)
            r = r + mono
            work = work - mono
    return q, r


@pytest.mark.parametrize("p", [7, 13, 31])
def test_division_matches_reference(p, rng):
    # general divisors (leading monomials other than x0^3, degree above
    # the dividend's) on the int division path
    for fdeg in (1, 2, 3):
        for gdeg in range(0, 7):
            f = random_form(fdeg, rng, p)
            if f.is_zero():
                continue
            g = random_form(gdeg, rng, p)
            q, r = divide(g, f)
            assert (q, r) == reference_divide(g, f)
            if gdeg >= fdeg:
                assert q * f + r == g
            else:
                assert q.is_zero() and r == g
            lm = f.leading()[0]
            assert all(min(x - y for x, y in zip(e, lm)) < 0 for e in r.coeffs)


def test_sum_of_products(rng):
    f, g, h, k = (random_form(d, rng) for d in (1, 2, 2, 1))
    assert sum_of_products([(f, g), (h, k)]) == f * g + h * k
    with pytest.raises(ValueError, match="degree mismatch"):
        sum_of_products([(f, g), (h, h)])
    with pytest.raises(ValueError, match="modulus mismatch"):
        sum_of_products([(f, g), (random_form(1, rng, 7), random_form(2, rng, 7))])


def test_divides(rng):
    f = HesseCubicForm(F(6)).form
    g = random_form(2, rng)
    assert divides(f, f * g)
    assert divide_by_cubic(f * g, HesseCubicForm(F(6)))[0] == g
    with pytest.raises(ZeroDivisionError):
        divide(g, HomForm.zero(1, P))


def test_hesse_cubic_form():
    f = HesseCubicForm(F(6))
    assert f.form.coefficient((3, 0, 0)) == one(P)
    assert f.form.coefficient((1, 1, 1)) == -F(6)
    assert f.form.degree == 3


@pytest.mark.parametrize("lam", [1, 3, 9])
def test_singular_lambda_rejected(lam):
    # lambda^3 = 27 = 1 mod 13 exactly on the cube roots of unity times 3
    with pytest.raises(ValueError):
        HesseCubicForm(F(lam))


def test_leading_is_graded_lex_max():
    f = HomForm(2, P, {(1, 1, 0): F(2), (0, 2, 0): F(5)})
    assert f.leading() == ((1, 1, 0), F(2))
