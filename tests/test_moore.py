import sys
from itertools import chain, product

import pytest

from hesse_moore import linalg
from hesse_moore.field import FieldElement
from hesse_moore.moore import (
    FormMatrix,
    KernelError,
    ProjectivePoint,
    adjugate_det,
    coordinate_vars,
    is_scalar_product,
    left_kernel_mod,
    moore,
    moore_adjugate,
    moore_det,
    moore_scalar,
    product_row,
)
from hesse_moore.poly import HomForm, monomials

P = 13


def F(v):
    return FieldElement(v, P)


def T(vals):
    return tuple(F(v) for v in vals)


def random_triple(rng, p=P):
    while True:
        a = tuple(FieldElement(rng.randrange(p), p) for _ in range(3))
        if any(c.value for c in a):
            return a


# all 342 nonzero triples over F_7: zero coordinates, and adjugate
# coefficients that vanish mod 7, which random triples reach only by chance
F7_TRIPLES = [
    tuple(FieldElement(c, 7) for c in t) for t in product(range(7), repeat=3) if any(t)
]


def moore_from_exponents(a):
    """The Moore matrix (a[i+j] * x[i-j]) built from exponent triples."""
    p = a[0].p
    x = [tuple(int(t == k) for t in range(3)) for k in range(3)]  # exponents of x_k
    return FormMatrix(
        [
            [HomForm.from_residues(1, p, {x[(i - j) % 3]: a[(i + j) % 3].value}) for j in range(3)]
            for i in range(3)
        ]
    )


class TestProjectivePoint:
    def test_normalization(self):
        assert ProjectivePoint.from_ints((2, 4, 6), P).as_ints() == [1, 2, 3]
        assert ProjectivePoint.from_ints((0, 5, 10), P).as_ints() == [0, 1, 2]
        assert ProjectivePoint.from_ints((0, 0, 7), P).as_ints() == [0, 0, 1]

    def test_equality_up_to_scale(self):
        a = ProjectivePoint.from_ints((1, 2, 3), P)
        b = ProjectivePoint.from_ints((5, 10, 15), P)
        assert a == b
        assert hash(a) == hash(b)
        assert a != ProjectivePoint.from_ints((1, 2, 4), P)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint.from_ints((0, 0, 0), P)

    def test_coordinate_product(self):
        assert ProjectivePoint.from_ints((1, 2, 3), P).coordinate_product() == 6
        assert ProjectivePoint.from_ints((2, 3, 4), P).coordinate_product() == 3  # 1 * 8 * 2 = 16
        assert ProjectivePoint.from_ints((0, 1, 1), P).coordinate_product() == 0


def test_moore_displayed_entries():
    # rows: [a0 x0, a1 x2, a2 x1; a1 x1, a2 x0, a0 x2; a2 x2, a0 x1, a1 x0]
    m = moore(T((1, 2, 3)))
    assert m.serialize() == [
        ["1*x0^1", "2*x2^1", "3*x1^1"],
        ["2*x1^1", "3*x0^1", "1*x2^1"],
        ["3*x2^1", "1*x1^1", "2*x0^1"],
    ]


def specialize(m, pt):
    """Every entry of the form matrix m evaluated at the scalar triple pt,
    as residues."""
    return [[e.evaluate(pt) for e in row] for row in m.entries]


def test_moore_scalar_is_specialization():
    a, b = T((1, 2, 3)), T((4, 5, 6))
    assert [[x.value for x in row] for row in moore_scalar(a, b)] == specialize(moore(a), b)


def test_moore_det_closed_form_frozen():
    # a0a1a2 = 6, sum of cubes = 36 = 10, so -10 = 3 mod 13
    det = moore_det(T((1, 2, 3)))
    assert det.serialize() == "6*x0^3 + 3*x0^1*x1^1*x2^1 + 6*x1^3 + 6*x2^3"


def test_det_matches_leibniz_oracle(rng):
    # the generic determinant is a cofactor expansion, checked against the
    # Leibniz formula written out here
    for _ in range(50):
        a = random_triple(rng)
        e = moore(a).entries
        leibniz = (
            e[0][0] * e[1][1] * e[2][2] + e[0][1] * e[1][2] * e[2][0] + e[0][2] * e[1][0] * e[2][1]
        ) - (
            e[0][2] * e[1][1] * e[2][0] + e[0][0] * e[1][2] * e[2][1] + e[0][1] * e[1][0] * e[2][2]
        )
        _, det = adjugate_det(e)
        assert det == leibniz
        assert moore_det(a) == det


def test_adjugate_matches_cofactor_oracle(rng):
    for a in [random_triple(rng) for _ in range(50)] + F7_TRIPLES:
        m = moore(a)
        assert m == moore_from_exponents(a)
        adj, _ = adjugate_det(m.entries)
        assert moore_adjugate(a) == FormMatrix(adj)


def test_mul_by_adjugate_gives_det(rng):
    for _ in range(20):
        a = random_triple(rng)
        m, adj = moore(a), moore_adjugate(a)
        det = moore_det(a)
        expect = FormMatrix(
            [[det if i == j else HomForm.zero(3, P) for j in range(3)] for i in range(3)]
        )
        assert m @ adj == expect
        assert adj @ m == expect


@pytest.mark.parametrize("n", [3, 6])
def test_is_scalar_is_g_times_identity(n):
    # is_scalar_product compares the product's reduced row, cell by cell;
    # each matrix is multiplied by the identity, on either side
    f = moore_det(T((1, 2, 3)))
    zero = HomForm.zero(3, P)
    identity = FormMatrix.from_scalars([[int(i == j) for j in range(n)] for i in range(n)], P)

    def is_scalar(cell, g=f):
        m = FormMatrix([[cell(i, j) for j in range(n)] for i in range(n)])
        left, right = is_scalar_product([(m, identity)], g), is_scalar_product([(identity, m)], g)
        assert left == right
        return left

    def scalar(i, j):
        return f if i == j else zero

    assert is_scalar(scalar)
    # a wrong diagonal, in one cell or in all
    assert not is_scalar(lambda i, j: f if i == j != n - 1 else zero)
    assert not is_scalar(lambda i, j: f + f if i == j else zero)
    # a nonzero entry off the diagonal
    assert not is_scalar(lambda i, j: f if i == j or (i, j) == (0, n - 1) else zero)
    # one residue changed, in each cell in turn
    bump = HomForm.from_residues(3, P, {(0, 1, 2): 1})
    for cell in product(range(n), repeat=2):
        assert not is_scalar(lambda i, j: scalar(i, j) + (bump if (i, j) == cell else zero))
    # g at another degree, or with the same residues over another prime
    assert not is_scalar(scalar, f * HomForm.variable(0, P))
    assert not is_scalar(scalar, HomForm.from_residues(3, 19, f.residues))


def test_form_matrix_algebra():
    a = moore(T((1, 2, 3)))
    assert a - a == a.scale(F(0))
    assert (a + a) == a.scale(F(2))
    assert (-a) + a == a.scale(F(0))
    assert a.trace() == HomForm.parse("6*x0^1", 1, P)
    x0 = HomForm.variable(0, P)
    assert a.scale_form(x0).entries[0][0] == x0 * x0


def test_form_matrix_size_is_not_truncated():
    three = FormMatrix.from_scalars([[int(i == j) for j in range(3)] for i in range(3)], P)
    two = FormMatrix.from_scalars([[1, 0], [0, 1]], P)
    assert (three.n, two.n) == (3, 2)
    assert three != two and two != three
    for op in (three.__add__, three.__sub__, three.__matmul__):
        with pytest.raises(ValueError, match="size mismatch: 3x3 vs 2x2"):
            op(two)


def random_form_matrix(rng, n, degree, p):
    """An n x n matrix of random forms; about a quarter of the entries,
    and some coefficients of the rest, are zero."""
    def entry():
        if rng.random() < 0.25:
            return HomForm.zero(degree, p)
        return HomForm.from_residues(degree, p, {e: rng.randrange(p) for e in monomials(degree)})

    return FormMatrix([[entry() for _ in range(n)] for _ in range(n)])


def entrywise_product_sum(pairs):
    """sum(X @ Y) by its definition: entry (i, j) is the sum over all
    pairs and all k of the form products X[i][k] * Y[k][j]."""
    n = pairs[0][0].n

    def entry(i, j):
        products = [X.entries[i][k] * Y.entries[k][j] for X, Y in pairs for k in range(n)]
        return sum(products[1:], products[0])

    return FormMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


# 2^61 - 1: the cells sum products of residues that exceed 64 bits
@pytest.mark.parametrize("p", [13, 37, 2**61 - 1])
@pytest.mark.parametrize("n", [3, 6])
def test_matmul_sum_matches_entrywise_definition(n, p, rng):
    for _ in range(4):
        for d1 in range(4):
            for d2 in range(4 - d1):
                degrees = (d1, d2, d2, d1, d1, d2)
                X, Y, U, V, W, Z = (random_form_matrix(rng, n, d, p) for d in degrees)
                one = entrywise_product_sum([(X, Y)])
                assert X @ Y == one and product_row([(X, Y)]) == one.row()
                two = product_row([(X, Y), (U, V)])
                assert two == entrywise_product_sum([(X, Y), (U, V)]).row()
                assert two == (X @ Y + U @ V).row()
                # the flat row, reduced, is the sum's coordinates, cell by cell
                three = [(X, Y), (U, V), (W, Z)]
                want = entrywise_product_sum(three)
                assert FormMatrix.from_row(n, d1 + d2, p, product_row(three)) == want
                assert product_row(three) == [c for e in chain(*want.entries) for c in e.row()]
    zero = FormMatrix([[HomForm.zero(1, p)] * n] * n)
    assert (zero @ zero).is_zero() and (zero @ zero).degree == 2


def test_matmul_sum_keeps_the_mismatch_errors(rng):
    a, b = random_form_matrix(rng, 3, 1, P), random_form_matrix(rng, 3, 2, P)
    two = FormMatrix.from_scalars([[1, 0], [0, 1]], P)
    other = random_form_matrix(rng, 3, 1, 19)
    with pytest.raises(ValueError, match="^size mismatch: 3x3 vs 2x2$"):
        product_row([(a, two)])
    with pytest.raises(ValueError, match="^size mismatch: 3x3 vs 2x2$"):
        product_row([(a, a), (two, two)])
    with pytest.raises(ValueError, match="^modulus mismatch$"):
        a @ other
    with pytest.raises(ValueError, match="^modulus mismatch$"):
        product_row([(a, a), (other, other)])
    with pytest.raises(ValueError, match="^degree mismatch: 2 vs 3$"):
        product_row([(a, a), (a, b)])


def test_product_trace_is_the_trace_of_the_product(rng):
    for n in (3, 6):
        X, Y = random_form_matrix(rng, n, 2, P), random_form_matrix(rng, n, 1, P)
        assert X.product_trace(Y) == (X @ Y).trace()
    with pytest.raises(ValueError, match="^size mismatch: 3x3 vs 2x2$"):
        moore(T((1, 2, 3))).product_trace(FormMatrix.from_scalars([[1, 0], [0, 1]], P))


def test_form_matrix_equality_needs_modulus_and_degree():
    a = moore(T((1, 2, 3)))
    assert a != moore(tuple(FieldElement(v, 19) for v in (1, 2, 3)))
    x0 = HomForm.variable(0, P)
    assert a.scale_form(x0) != a
    zero1, zero2 = (FormMatrix([[HomForm.zero(d, P)] * 3] * 3) for d in (1, 2))
    assert zero1 != zero2
    assert zero1 == a - a


def test_form_matrix_degree():
    a = moore(T((1, 2, 3)))
    assert a.degree == 1
    assert moore_adjugate(T((1, 2, 3))).degree == 2
    assert a.scale_form(a.trace()).degree == 2
    assert (a @ moore_adjugate(T((1, 2, 3)))).degree == 3
    assert FormMatrix.from_scalars([[1]], P).degree == 0


def test_form_matrix_rejects_mixed_entries():
    x0 = HomForm.variable(0, P)
    rows = [[x0, x0, x0] for _ in range(3)]
    rows[2][1] = x0 * x0
    with pytest.raises(ValueError, match="mixed entries: degree 1 mod 13 vs 2 mod 13"):
        FormMatrix(rows)
    rows[2][1] = HomForm.zero(0, P)
    with pytest.raises(ValueError, match="mixed entries: degree 1 mod 13 vs 0 mod 13"):
        FormMatrix(rows)
    rows[2][1] = HomForm.variable(0, 19)
    with pytest.raises(ValueError, match="mixed entries: degree 1 mod 13 vs 1 mod 19"):
        FormMatrix(rows)


def test_form_matrix_needs_a_row(monkeypatch):
    with pytest.raises(ValueError, match="^a matrix needs at least one row$"):
        FormMatrix([])
    # from_row refuses an empty size the same way, before it builds a form
    monkeypatch.setattr(sys.modules[FormMatrix.__module__], "split_row", None)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^a matrix needs at least one row$"):
            FormMatrix.from_row(n, 1, P, [])


def assert_checked(out):
    """out is what the checked constructor builds from its entries, and
    every entry's terms ascend strictly with residues in [1, p)."""
    checked = FormMatrix(out.entries)
    assert (out.n, out.p, out.degree, out.entries) == (
        checked.n, checked.p, checked.degree, checked.entries
    )
    for e in chain.from_iterable(out.entries):
        positions = [i for i, _ in e.terms]
        assert positions == sorted(set(positions))
        assert all(0 < v < out.p for _, v in e.terms)


def test_built_matrices_pass_the_checked_constructor():
    # the builders skip FormMatrix's checks; each result must still be
    # one that the checked constructor accepts with the same attributes
    a = T((1, 2, 3))
    m, adj = moore(a), moore_adjugate(a)
    x0 = HomForm.variable(0, P)
    for out in (m, adj, -m, m.scale(F(5)), m.scale_form(x0), m + m, m - m, m @ adj):
        assert_checked(out)
    # scaling works on the terms; the dense coordinate row is its oracle
    for a in F7_TRIPLES:
        for built in (moore(a), moore_adjugate(a)):
            assert_checked(built)
            assert_checked(-built)
            for c in (0, 1, 6):
                scaled = built.scale(FieldElement(c, 7))
                assert_checked(scaled)
                assert scaled.entries == [
                    [HomForm.from_row(e.degree, 7, [c * v for v in e.row()]) for e in row]
                    for row in built.entries
                ]
            assert -built == built.scale(FieldElement(6, 7))


def kernel_point(m, p=P):
    """The point spanning the left kernel of an int matrix."""
    return ProjectivePoint.from_ints(left_kernel_mod(m, p), p)


def test_left_kernel_point():
    # on the curve through (1,2,3): kernel of M_{a,a} is the identity o
    m = moore_scalar((1, 2, 3), (1, 2, 3))
    pt = kernel_point(m)
    assert pt.as_ints() == [0, 1, 12]
    # the kernel vector is genuinely annihilated
    assert not any(sum(x * y for x, y in zip(row, pt.residues)) % P for row in m)


def test_left_kernel_requires_rank_two():
    m = moore_scalar((1, 2, 3), (1, 1, 2))  # (1,1,2) is not on the curve of a
    assert linalg.rank_mod(m, P) == 3
    with pytest.raises(KernelError):
        kernel_point(m)
    with pytest.raises(KernelError):
        kernel_point([[int(i == j) for j in range(3)] for i in range(3)])
    # det = 0 with a vanishing adjugate: rank 1 and rank 0
    rank1 = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
    with pytest.raises(KernelError, match="rank is 1, need exactly 2"):
        kernel_point(rank1)
    with pytest.raises(KernelError, match="rank is 0, need exactly 2"):
        kernel_point([[0] * 3 for _ in range(3)])


def test_int_kernel_keeps_the_rank_messages():
    rank1 = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
    with pytest.raises(KernelError, match="^rank is 1, need exactly 2$"):
        left_kernel_mod(rank1, P)
    rank3 = [[c.value for c in row] for row in moore_scalar(T((1, 2, 3)), T((1, 1, 2)))]
    with pytest.raises(KernelError, match="^rank is 3, need exactly 2$"):
        left_kernel_mod(rank3, P)
    # entries need not be reduced: 13 = 0 and 14 = 1 mod 13
    assert left_kernel_mod([[14, 0, 0], [0, 14, 0], [0, 0, 13]], P) == (0, 0, 1)


def test_int_kernel_matches_gauss_jordan_nullspace(rng):
    for p in (7, 13, 31):
        checked = 0
        while checked < 30:
            ints = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            if linalg.rank_mod(ints, p) != 2:
                continue
            checked += 1
            (v,) = linalg.nullspace_mod([row[:] for row in ints], p)
            want = ProjectivePoint(tuple(FieldElement(x, p) for x in v))
            assert kernel_point(ints, p) == want
            assert left_kernel_mod(ints, p) == want.residues


def test_from_ints_matches_field_element_normalization(rng):
    """from_ints against normalization written with FieldElements."""
    for p in (7, 13, 43):
        triples = [(0, 0, 1), (0, 5, 3), (0, 0, p - 1), (p + 2, -1, 2 * p)]
        triples += [tuple(rng.randrange(-2 * p, 2 * p) for _ in range(3)) for _ in range(60)]
        for t in triples:
            fe = tuple(FieldElement(v, p) for v in t)
            if not any(fe):
                with pytest.raises(ValueError, match="not a projective point"):
                    ProjectivePoint.from_ints(t, p)
                continue
            lead_inv = next(c for c in fe if c).inv()
            want = tuple(c * lead_inv for c in fe)
            pt = ProjectivePoint.from_ints(t, p)
            assert pt.coords == want
            assert pt.as_ints() == [c.value for c in want]
            assert pt == ProjectivePoint(fe)
            assert hash(pt) == hash(ProjectivePoint(fe))
            assert pt.coordinate_product() == (want[0] * want[1] * want[2]).value
    with pytest.raises(ValueError, match="needs 3 coordinates"):
        ProjectivePoint.from_ints((1, 2), P)
    with pytest.raises(ValueError, match="not congruent to 1 mod 6"):
        ProjectivePoint.from_ints((1, 2, 3), 11)
    assert ProjectivePoint.from_ints((1, 2, 3), 7) != ProjectivePoint.from_ints((1, 2, 3), 13)


def right_kernel_point(m):
    """The projective point spanning the left null space {d : d @ m = 0}."""
    return kernel_point([list(col) for col in zip(*m)])


def test_right_kernel_is_left_of_transpose():
    m = moore_scalar((1, 2, 3), (1, 2, 3))
    d = right_kernel_point(m)
    assert not any(sum(d.residues[i] * m[i][j] for i in range(3)) % P for j in range(3))


def test_scalar_adjugate_identity(rng):
    for _ in range(20):
        m = [[FieldElement(rng.randrange(P), P) for _ in range(3)] for _ in range(3)]
        adj, det = adjugate_det(m)
        prod = [
            [sum((m[i][k] * adj[k][j] for k in range(3)), F(0)) for j in range(3)]
            for i in range(3)
        ]
        assert prod == [
            [det if i == j else F(0) for j in range(3)] for i in range(3)
        ]
        # the same identity on the int residues
        ints = [[x.value for x in row] for row in m]
        adj_int, det_int = adjugate_det(ints)
        assert [[x % P for x in row] for row in adj_int] == [[x.value for x in row] for row in adj]
        assert linalg.mat_mul_mod(ints, adj_int, P) == [
            [det_int % P if i == j else 0 for j in range(3)] for i in range(3)
        ]


def test_moore_rejects_zero_triple():
    with pytest.raises(ValueError):
        moore(T((0, 0, 0)))


def test_coordinate_vars():
    x = coordinate_vars(P)
    assert [v.serialize() for v in x] == ["1*x0^1", "1*x1^1", "1*x2^1"]
