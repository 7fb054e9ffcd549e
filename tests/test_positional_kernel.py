"""The positional form kernel against an independent reference.

The reference is the exponent-keyed arithmetic: products and division
that add exponent triples and accumulate in dicts, read through the
``residues`` view, with no positions and no product tables.
"""

import random

import pytest

from hesse_moore.moore import FormMatrix, product_row
from hesse_moore.poly import HomForm, divide, monomials, product_index

# 2^61 - 1 makes every coefficient product exceed 64 bits
PRIMES = [7, 13, 37, 2**61 - 1]


def reference_products(pairs, p):
    """sum(f * g) as {exps: residue}, exponent triples added per term pair."""
    acc = {}
    for f, g in pairs:
        g_terms = g.residues.items()
        for (a0, a1, a2), v in f.residues.items():
            for (b0, b1, b2), w in g_terms:
                exps = (a0 + b0, a1 + b1, a2 + b2)
                acc[exps] = acc.get(exps, 0) + v * w
    return {e: r for e, v in acc.items() if (r := v % p)}


def reference_divide(g, f):
    """(q, r) as {exps: residue} dicts: one descending sweep over the
    multiples diff + lm of the leading monomial lm of f."""
    p = g.p
    lm = max(f.residues)
    lc_inv = pow(f.residues[lm], p - 2, p)
    tail = [(e, v) for e, v in f.residues.items() if e != lm]
    work = dict(g.residues)
    q = {}
    for diff in monomials(g.degree - f.degree):
        c = work.pop((diff[0] + lm[0], diff[1] + lm[1], diff[2] + lm[2]), 0) % p
        if not c:
            continue
        t = c * lc_inv % p
        q[diff] = t
        for (e0, e1, e2), v in tail:
            key = (diff[0] + e0, diff[1] + e1, diff[2] + e2)
            work[key] = work.get(key, 0) - t * v
    return q, {e: r for e, v in work.items() if (r := v % p)}


def random_form(degree, rng, p):
    """A form with a random share of zero coefficients, the zero form included."""
    density = rng.choice((0.0, 0.3, 1.0))
    coeffs = {e: rng.randrange(1, p) for e in monomials(degree) if rng.random() < density}
    return HomForm.from_residues(degree, p, coeffs)


def random_matrix(n, degree, rng, p):
    return FormMatrix([[random_form(degree, rng, p) for _ in range(n)] for _ in range(n)])


def assert_canonical(form):
    """terms strictly ascending in position, residues in 1..p-1."""
    positions = [i for i, _ in form.terms]
    assert positions == sorted(set(positions))
    assert all(0 <= i < len(monomials(form.degree)) for i in positions)
    assert all(isinstance(v, int) and 0 < v < form.p for _, v in form.terms)


def test_product_index_is_the_position_of_the_exponent_sum():
    for d1 in range(7):
        for d2 in range(7):
            table = product_index(d1, d2)
            out = monomials(d1 + d2)
            assert len(table) == len(monomials(d1))
            for a, row in zip(monomials(d1), table):
                assert len(row) == len(monomials(d2))
                for b, pos in zip(monomials(d2), row):
                    assert out[pos] == tuple(x + y for x, y in zip(a, b))
    assert product_index(-1, 3) == ()


@pytest.mark.parametrize("p", PRIMES)
def test_sum_of_products_matches_reference(p):
    """product_trace, the sum of the n^2 entry products of tr(X @ Y), and
    a single form product, for n = 3 and n = 6."""
    rng = random.Random(5000 + p % 1000)
    for n in (3, 6):
        for _ in range(12):
            degree = rng.randrange(7)
            d1 = rng.randrange(degree + 1)
            X, Y = random_matrix(n, d1, rng, p), random_matrix(n, degree - d1, rng, p)
            got = X.product_trace(Y)
            assert got.degree == degree and got.p == p
            pairs = [(X.entries[i][k], Y.entries[k][i]) for i in range(n) for k in range(n)]
            assert got.residues == reference_products(pairs, p)
            assert_canonical(got)
            f, g = pairs[0]
            assert (f * g).residues == reference_products([(f, g)], p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [3, 6])
def test_matmul_sum_matches_reference(n, p):
    rng = random.Random(6000 + n + p % 1000)
    for d in (0, 2, 6):
        mats = [
            (random_matrix(n, d1, rng, p), random_matrix(n, d - d1, rng, p))
            for d1 in (0, d)
        ]
        row = product_row(mats)
        got = FormMatrix.from_row(n, d, p, row)
        assert (got.n, got.p, got.degree, got.row()) == (n, p, d, row)
        for i in range(n):
            for j in range(n):
                pairs = [(X.entries[i][k], Y.entries[k][j]) for X, Y in mats for k in range(n)]
                assert got.entries[i][j].residues == reference_products(pairs, p)
                assert_canonical(got.entries[i][j])


@pytest.mark.parametrize("p", PRIMES)
def test_divide_matches_reference(p):
    rng = random.Random(7000 + p % 1000)
    for _ in range(60):
        f = random_form(rng.randrange(1, 4), rng, p)
        if f.is_zero():
            continue
        g = random_form(rng.randrange(7), rng, p)
        q, r = divide(g, f)
        want_q, want_r = reference_divide(g, f)
        assert (q.degree, r.degree) == (max(g.degree - f.degree, 0), g.degree)
        assert q.residues == want_q and r.residues == want_r
        assert_canonical(q)
        assert_canonical(r)
        if g.degree >= f.degree:
            assert q * f + r == g


def test_row_and_from_row_are_inverse(rng):
    for p in PRIMES:
        for degree in range(5):
            f = random_form(degree, rng, p)
            row = f.row()
            assert len(row) == len(monomials(degree))
            assert row == [f.coefficient(e) for e in monomials(degree)]
            assert HomForm.from_row(degree, p, row) == f
            assert HomForm.from_row(degree, p, [v - p for v in row]) == f


def test_empty_matrix_sums_have_no_degree():
    with pytest.raises(ValueError, match="empty sum of matrix products has no degree"):
        product_row([])
