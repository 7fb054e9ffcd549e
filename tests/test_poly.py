import re

import pytest

import hesse_moore.poly as poly
from hesse_moore.field import FieldElement
from hesse_moore.hesse import HesseCurve
from hesse_moore.moore import FormMatrix
from hesse_moore.poly import HomForm, divide, monomials

P = 13
PRIMES = [7, 13, 19, 31, 37, 43]


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
    assert prod.coefficient((2, 0, 0)) == 1
    assert prod.coefficient((0, 2, 0)) == P - 1
    assert prod.coefficient((1, 1, 0)) == 0
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


def test_evaluate(rng):
    f = random_form(3, rng)
    pt = tuple(F(v) for v in (2, 5, 7))
    expected = sum(c.value * 2 ** e[0] * 5 ** e[1] * 7 ** e[2] for e, c in f.coeffs.items())
    assert f.evaluate(pt) == expected % P


def test_serialize_parse_roundtrip(rng):
    for d in range(4):
        for _ in range(10):
            f = random_form(d, rng)
            assert HomForm.parse(f.serialize(), d, P) == f
    assert HomForm.zero(2, P).serialize() == "0"
    assert HomForm.parse("0", 2, P).is_zero()


@pytest.mark.parametrize(
    "text", ["3*y0", "1*z1", "1*w2", "2*x3", "2*X0", "1*x", "1*x01", "1*x0^"]
)
def test_parse_rejects_unknown_variables(text):
    # only x0, x1, x2 are variables (other names used to alias them), and
    # a written '^' needs an exponent ('1*x0^' used to read as x0)
    message = "empty exponent" if text.endswith("^") else "unknown variable"
    with pytest.raises(ValueError, match=message):
        HomForm.parse(text, 1, P)
    assert HomForm.parse("3*x0 + 1*x1^1 + 1*x2", 1, P).serialize() == "3*x0^1 + 1*x1^1 + 1*x2^1"


def test_division_certificate(rng):
    f = HesseCurve(F(6)).form
    for gdeg in (3, 4, 5):
        for _ in range(10):
            g = random_form(gdeg, rng)
            q, r = divide(g, f)
            assert q * f + r == g
            # canonical remainder: no monomial divisible by LM(f) = x0^3
            assert all(e[0] < 3 for e in r.residues)


def leading(form):
    """The graded-lex largest monomial of a nonzero form and its
    coefficient as a field element."""
    exps = max(form.coeffs)
    return exps, form.coeffs[exps]


def reference_divide(g, f):
    """Division by repeated subtraction of leading terms, on whole forms."""
    p = g.p
    lm, lc = leading(f)
    q = HomForm.zero(max(g.degree - f.degree, 0), p)
    r = HomForm.zero(g.degree, p)
    work = g
    while not work.is_zero():
        exps, c = leading(work)
        diff = tuple(x - y for x, y in zip(exps, lm))
        if min(diff) >= 0:
            t = HomForm(sum(diff), p, {diff: c * lc.inv()})
            q = q + t
            work = work - t * f
        else:
            mono = HomForm(g.degree, p, {exps: c})
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
            lm = leading(f)[0]
            assert all(min(x - y for x, y in zip(e, lm)) < 0 for e in r.residues)


def full_sweep_divide(g, f):
    """The division as it was written before it swept only the multiples
    of lm(f): every monomial of g's degree in descending order, each
    either reduced or moved to the remainder."""
    p = g.p
    lm = max(f.residues)
    lc_inv = pow(f.residues[lm], p - 2, p)
    tail = [(e, v) for e, v in f.residues.items() if e != lm]
    work = dict(g.residues)
    q, r = {}, {}
    for exps in monomials(g.degree):
        c = work.get(exps, 0) % p
        if not c:
            continue
        diff = tuple(x - y for x, y in zip(exps, lm))
        if min(diff) < 0:
            r[exps] = c
            continue
        t = c * lc_inv % p
        q[diff] = t
        for e, v in tail:
            key = tuple(x + y for x, y in zip(diff, e))
            work[key] = work.get(key, 0) - t * v
    return (
        HomForm.from_residues(max(g.degree - f.degree, 0), p, q),
        HomForm.from_residues(g.degree, p, r),
    )


@pytest.mark.parametrize("p", [13, 37])
def test_division_matches_full_sweep(p, rng):
    # leading monomials other than powers of x0 among the fixed divisors
    fixed = [
        HomForm.parse("1*x1^2*x2 + 1*x2^3", 3, p),
        HomForm.parse("2*x1*x2 + 3*x2^2", 2, p),
        HomForm.parse("5*x2", 1, p),
    ]
    divisors = fixed + [random_form(d, rng, p) for d in (1, 2, 3) for _ in range(4)]
    for f in (f for f in divisors if not f.is_zero()):
        lm = max(f.residues)
        for gdeg in range(9):
            g = random_form(gdeg, rng, p)
            q, r = divide(g, f)
            assert (q, r) == full_sweep_divide(g, f)
            if gdeg >= f.degree:
                assert q * f + r == g
                h = random_form(gdeg - f.degree, rng, p)
                assert divide(h * f, f) == (h, HomForm.zero(gdeg, p))
            else:
                assert q.is_zero() and r == g
            assert all(min(x - y for x, y in zip(e, lm)) < 0 for e in r.residues)


def test_sum_of_products(rng):
    """product_trace is the sum of the entry products X[i][k] * Y[k][i]."""

    def matrix(n, degree, p=P):
        return FormMatrix([[random_form(degree, rng, p) for _ in range(n)] for _ in range(n)])

    X, Y = matrix(3, 1), matrix(3, 2)
    products = [X.entries[i][k] * Y.entries[k][i] for i in range(3) for k in range(3)]
    assert X.product_trace(Y) == sum(products[1:], products[0])
    with pytest.raises(ValueError, match="^size mismatch: 3x3 vs 2x2$"):
        X.product_trace(matrix(2, 2))
    with pytest.raises(ValueError, match="^modulus mismatch$"):
        X.product_trace(matrix(3, 2, 7))


def test_divides(rng):
    f = HesseCurve(F(6)).form
    g = random_form(2, rng)
    assert divide(f * g, f) == (g, HomForm.zero(5, P))
    with pytest.raises(ZeroDivisionError):
        divide(g, HomForm.zero(1, P))


def test_hesse_cubic_form():
    f = HesseCurve(F(6)).form
    assert f.coefficient((3, 0, 0)) == 1
    assert f.coefficient((0, 3, 0)) == f.coefficient((0, 0, 3)) == 1
    assert f.coefficient((1, 1, 1)) == P - 6
    assert f.coeffs == {(3, 0, 0): F(1), (0, 3, 0): F(1), (0, 0, 3): F(1), (1, 1, 1): -F(6)}
    assert f.degree == 3


@pytest.mark.parametrize("lam", [1, 3, 9])
def test_singular_lambda_rejected(lam):
    # lambda^3 = 27 = 1 mod 13 exactly on the cube roots of unity times 3
    with pytest.raises(ValueError, match="gives a singular cubic"):
        HesseCurve(F(lam))


@pytest.mark.parametrize("p", PRIMES)
def test_field_element_edge_round_trip(p, rng):
    # the coeffs view and the FieldElement constructor are inverse: the
    # same form, with the same hash
    for d in range(4):
        for _ in range(5):
            f = random_form(d, rng, p)
            assert all(isinstance(v, int) and 0 < v < p for v in f.residues.values())
            assert f.coeffs == {e: FieldElement(v, p) for e, v in f.residues.items()}
            g = HomForm(d, p, f.coeffs)
            assert g == f and hash(g) == hash(f)
            assert HomForm.from_residues(d, p, f.residues) == f


@pytest.mark.parametrize("p", PRIMES)
def test_from_residues_reduces_and_drops_zeros(p):
    raw = {(2, 0, 0): -1, (1, 1, 0): p + 3, (0, 2, 0): 5 * p, (0, 0, 2): 0}
    f = HomForm.from_residues(2, p, raw)
    assert f.residues == {(2, 0, 0): p - 1, (1, 1, 0): 3}
    assert f == HomForm(2, p, {(2, 0, 0): FieldElement(-1, p), (1, 1, 0): FieldElement(3, p)})
    assert f.coefficient((0, 2, 0)) == 0
    assert HomForm.from_residues(1, p, {(1, 0, 0): p, (0, 1, 0): -2 * p}).is_zero()
    with pytest.raises(ValueError, match="not congruent"):
        HomForm.from_residues(0, p + 2, {(0, 0, 0): 1})


def test_from_row_needs_one_coordinate_per_monomial(monkeypatch):
    # a linear form has three coordinates, so a fourth entry has no monomial
    with pytest.raises(ValueError, match="^a degree-1 form has 3 coordinates, got 4$"):
        HomForm.from_row(1, 13, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="^a degree-2 form has 6 coordinates, got 3$"):
        HomForm.from_row(2, 13, [1, 2, 3])
    # the length is checked before the row is split into forms
    monkeypatch.setattr(poly, "split_row", None)
    with pytest.raises(ValueError, match="^a degree-1 form has 3 coordinates, got 6$"):
        HomForm.from_row(1, 13, [1, 2, 3, 4, 5, 6])


def test_int_constructors_reject_a_negative_degree():
    # the same text HomForm(-1, p) and HomForm.parse give
    for call in (
        lambda: HomForm.from_row(-1, 13, []),
        lambda: HomForm.from_residues(-2, 13, {}),
        lambda: HomForm(-1, 13),
        lambda: HomForm.parse("0", -1, 13),
    ):
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            call()


@pytest.mark.parametrize("exps", [(2, 0, 0), (1, 0), (2, -1, 0), (1, 0, 0, 0)])
def test_from_residues_rejects_exponents_of_another_degree(exps):
    message = rf"^exponents {re.escape(str(exps))} do not have degree 1$"
    with pytest.raises(ValueError, match=message):
        HomForm.from_residues(1, 13, {(0, 1, 0): 2, exps: 1})
    with pytest.raises(ValueError, match=message):
        HomForm(1, 13, {(0, 1, 0): F(2), exps: F(1)})
