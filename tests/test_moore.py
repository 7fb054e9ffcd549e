import pytest

from hesse_moore import linalg
from hesse_moore.field import FieldElement, zero
from hesse_moore.moore import (
    FormMatrix,
    KernelError,
    ProjectivePoint,
    adjugate_det,
    coordinate_vars,
    left_kernel_mod,
    left_kernel_point,
    moore,
    moore_adjugate,
    moore_det,
    moore_scalar,
    right_kernel_point,
)
from hesse_moore.poly import HomForm

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


def test_moore_scalar_is_specialization():
    a, b = T((1, 2, 3)), T((4, 5, 6))
    assert moore_scalar(a, b) == moore(a).specialize(b)


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
    for _ in range(50):
        a = random_triple(rng)
        adj, _ = adjugate_det(moore(a).entries)
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


def test_form_matrix_algebra():
    a = moore(T((1, 2, 3)))
    assert a - a == a.scale(zero(P))
    assert (a + a) == a.scale(F(2))
    assert a.transpose().transpose() == a
    assert (-a) + a == a.scale(zero(P))
    assert a.trace() == HomForm.parse("6*x0^1", 1, P)
    x0 = HomForm.variable(0, P)
    assert a.scale_form(x0).entries[0][0] == x0 * x0


def test_left_kernel_point():
    # on the curve through (1,2,3): kernel of M_{a,a} is the identity o
    a = T((1, 2, 3))
    pt = left_kernel_point(moore_scalar(a, a))
    assert pt.as_ints() == [0, 1, 12]
    # the kernel vector is genuinely annihilated
    m = moore_scalar((1, 2, 3), (1, 2, 3))
    assert not any(sum(x * y for x, y in zip(row, pt.residues)) % P for row in m)


def test_left_kernel_requires_rank_two():
    a, b = T((1, 2, 3)), T((1, 1, 2))  # b is not on the curve of a
    assert linalg.rank_mod(moore_scalar((1, 2, 3), (1, 1, 2)), P) == 3
    with pytest.raises(KernelError):
        left_kernel_point(moore_scalar(a, b))
    with pytest.raises(KernelError):
        left_kernel_point([[F(int(i == j)) for j in range(3)] for i in range(3)])
    # det = 0 with a vanishing adjugate: rank 1 and rank 0
    rank1 = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(0), F(0)]]
    with pytest.raises(KernelError, match="rank is 1, need exactly 2"):
        left_kernel_point(rank1)
    with pytest.raises(KernelError, match="rank is 0, need exactly 2"):
        left_kernel_point([[F(0)] * 3 for _ in range(3)])


def test_int_kernel_keeps_the_rank_messages():
    rank1 = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
    with pytest.raises(KernelError, match="^rank is 1, need exactly 2$"):
        left_kernel_mod(rank1, P)
    rank3 = [[c.value for c in row] for row in moore_scalar(T((1, 2, 3)), T((1, 1, 2)))]
    with pytest.raises(KernelError, match="^rank is 3, need exactly 2$"):
        left_kernel_mod(rank3, P)
    with pytest.raises(KernelError, match="^rank is 3, need exactly 2$"):
        left_kernel_point(moore_scalar(T((1, 2, 3)), T((1, 1, 2))))
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
            assert left_kernel_point([[FieldElement(x, p) for x in row] for row in ints]) == want
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


def test_right_kernel_is_left_of_transpose():
    a = T((1, 2, 3))
    m = moore_scalar(a, a)
    d = right_kernel_point(m)
    ints, _ = linalg.residues(m)
    assert not any(sum(d.residues[i] * ints[i][j] for i in range(3)) % P for j in range(3))


def test_scalar_adjugate_identity(rng):
    for _ in range(20):
        m = [[FieldElement(rng.randrange(P), P) for _ in range(3)] for _ in range(3)]
        adj, det = adjugate_det(m)
        prod = [
            [sum((m[i][k] * adj[k][j] for k in range(3)), zero(P)) for j in range(3)]
            for i in range(3)
        ]
        assert prod == [
            [det if i == j else zero(P) for j in range(3)] for i in range(3)
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
