import random

import pytest

from hesse_moore import linalg
from hesse_moore.field import FieldElement

P = 13


def M(rows):
    return [[FieldElement(v, P) for v in row] for row in rows]


def V(vals):
    return [FieldElement(v, P) for v in vals]


def random_matrix(rows, cols, rng):
    return [[FieldElement(rng.randrange(P), P) for _ in range(cols)] for _ in range(rows)]


def test_identity_and_mat_mul():
    a = M([[1, 2], [3, 4]])
    i = linalg.identity(2, P)
    assert linalg.mat_mul(a, i) == a
    assert linalg.mat_mul(i, a) == a
    b = M([[0, 1], [1, 0]])
    assert linalg.mat_mul(a, b) == M([[2, 1], [4, 3]])


def test_rref_known():
    red, pivots = linalg.rref(M([[2, 4, 6], [1, 2, 4]]))
    assert pivots == [0, 2]
    assert red == M([[1, 2, 0], [0, 0, 1]])


def test_rref_is_canonical(rng):
    a = random_matrix(4, 6, rng)
    shuffled = a[:]
    rng.shuffle(shuffled)
    assert linalg.row_space(a) == linalg.row_space(shuffled)
    # scaling rows does not change the row space either
    scaled = [[FieldElement(5, P) * x for x in row] for row in a]
    assert linalg.row_space(a) == linalg.row_space(scaled)


def test_rank_nullity(rng):
    for _ in range(20):
        a = random_matrix(4, 7, rng)
        ns = linalg.nullspace(a)
        assert linalg.rank(a) + len(ns) == 7
        for v in ns:
            assert all(x.is_zero() for x in linalg.mat_vec(a, v))
        # nullspace vectors are independent
        assert linalg.span_dim(ns) == len(ns)


def test_solve_consistent(rng):
    for _ in range(20):
        a = random_matrix(5, 3, rng)
        x = V([rng.randrange(P) for _ in range(3)])
        b = linalg.mat_vec(a, x)
        sol = linalg.solve(a, b)
        assert sol is not None
        assert linalg.mat_vec(a, sol) == b


def test_solve_inconsistent():
    a = M([[1, 0], [1, 0]])
    assert linalg.solve(a, V([1, 2])) is None
    assert linalg.solve(a, V([1, 1])) == V([1, 0])


def test_span_predicates():
    u = [V([1, 0, 1]), V([0, 1, 1])]
    v = [V([1, 1, 2]), V([1, 12, 0])]
    assert linalg.same_span(u, v)
    assert linalg.in_span(u, V([2, 3, 5]))
    assert not linalg.in_span(u, V([0, 0, 1]))
    assert linalg.span_dim(u + v) == 2


def test_transpose_involution(rng):
    a = random_matrix(3, 5, rng)
    assert linalg.transpose(linalg.transpose(a)) == a


def reference_rref(a):
    """Gauss-Jordan elimination on FieldElement entries, the reference for
    the int kernel behind linalg.rref."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_int_kernel_matches_reference(p):
    rng = random.Random(1000 + p)

    def rand(rows, cols):
        return [[FieldElement(rng.randrange(p), p) for _ in range(cols)] for _ in range(rows)]

    for _ in range(5):
        low_rank = linalg.mat_mul(rand(9, 3), rand(3, 8))  # rank <= 3
        dependent = rand(4, 6)
        dependent += [[x + y for x, y in zip(dependent[0], dependent[1])], dependent[2][:]]
        for a in (rand(12, 5), rand(5, 12), rand(7, 7), low_rank, dependent):
            want, want_pivots = reference_rref(a)
            red, pivots = linalg.rref(a)
            assert (red, pivots) == (want, want_pivots)
            ints = [[x.value for x in row] for row in a]
            assert linalg.rref_mod(ints, p) == want_pivots
            assert ints == [[x.value for x in row] for row in want]
            assert linalg.rank(a) == len(want_pivots)
            assert linalg.row_space(a) == want[: len(want_pivots)]
            for v in linalg.nullspace(a):
                assert all(x.is_zero() for x in linalg.mat_vec(a, v))
        assert linalg.rank(low_rank) <= 3
        assert linalg.rank(dependent) <= 4


def test_mixed_moduli_raise():
    a = [[FieldElement(1, 7), FieldElement(2, 7)], [FieldElement(3, 13), FieldElement(4, 13)]]
    for fn in (linalg.rref, linalg.rank, linalg.nullspace, linalg.row_space, linalg.span_dim):
        with pytest.raises(ValueError, match="modulus mismatch"):
            fn(a)
    a7 = [[FieldElement(1, 7), FieldElement(2, 7)]]
    with pytest.raises(ValueError, match="modulus mismatch"):
        linalg.solve(a7, [FieldElement(1, 13)])
    with pytest.raises(ValueError, match="modulus mismatch"):
        linalg.in_span(a7, [FieldElement(1, 13), FieldElement(0, 13)])
