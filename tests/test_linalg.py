import random

import pytest

from hesse_moore import ext, linalg
from hesse_moore.field import FieldElement

P = 13


def M(rows):
    return [[FieldElement(v, P) for v in row] for row in rows]


def test_identity_and_mat_mul():
    a = [[1, 2], [3, 4]]
    i = [[1, 0], [0, 1]]
    assert linalg.mat_mul_mod(a, i, P) == a
    assert linalg.mat_mul_mod(i, a, P) == a
    assert linalg.mat_mul_mod(a, [[0, 1], [1, 0]], P) == [[2, 1], [4, 3]]
    # products are reduced, shapes need not be square, inputs are untouched
    assert linalg.mat_mul_mod([[12, 12, 1]], [[12], [1], [5]], P) == [[5]]
    assert linalg.mat_mul_mod([[1], [2]], [[3, 4]], P) == [[3, 4], [6, 8]]
    assert a == [[1, 2], [3, 4]]


def test_rref_known():
    red, pivots = linalg.rref(M([[2, 4, 6], [1, 2, 4]]))
    assert pivots == [0, 2]
    assert red == M([[1, 2, 0], [0, 0, 1]])


def random_rows(rows, cols, rng, p=P):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def mat_vec_mod(m, v, p=P):
    return [sum(x * y for x, y in zip(row, v)) % p for row in m]


def test_rref_is_canonical(rng):
    a = random_rows(4, 6, rng)
    want = [row[:] for row in a]
    want_pivots = linalg.rref_mod(want, P)
    shuffled = a[:]
    rng.shuffle(shuffled)
    # scaling rows does not change the reduced form either
    scaled = [[5 * x for x in row] for row in a]
    for b in (shuffled, scaled):
        assert linalg.same_span_mod(a, b, P)
        assert linalg.rref_mod(b, P) == want_pivots
        assert b == want


def test_rank_nullity(rng):
    for _ in range(20):
        a = random_rows(4, 7, rng)
        ns = linalg.nullspace_mod([row[:] for row in a], P)
        assert linalg.rank_mod(a, P) + len(ns) == 7
        for v in ns:
            assert not any(mat_vec_mod(a, v))
        # nullspace vectors are independent
        assert linalg.rank_mod(ns, P) == len(ns)


def test_solve_consistent(rng):
    for _ in range(20):
        a = random_rows(5, 3, rng)
        x = [rng.randrange(P) for _ in range(3)]
        b = mat_vec_mod(a, x)
        sol = linalg.solve_mod(a, b, P)
        assert sol is not None
        assert mat_vec_mod(a, sol) == b


def test_solve_inconsistent():
    a = [[1, 0], [1, 0]]
    assert linalg.solve_mod(a, [1, 2], P) is None
    assert linalg.solve_mod(a, [1, 1], P) == [1, 0]
    assert a == [[1, 0], [1, 0]]  # left untouched


def test_solve_rejects_a_right_side_of_another_length():
    # zipping would drop the third equation and "solve" x = (1, 2)
    with pytest.raises(ValueError, match="3 equations but 2 right-hand sides"):
        linalg.solve_mod([[1, 0], [0, 1], [1, 1]], [1, 2], P)
    with pytest.raises(ValueError, match="1 equations but 2 right-hand sides"):
        linalg.solve_mod([[1, 0]], [1, 2], P)


def test_span_predicates():
    u = [[1, 0, 1], [0, 1, 1]]
    v = [[1, 1, 2], [1, 12, 0]]
    assert linalg.same_span_mod(u, v, P)
    assert linalg.rank_mod(u + [[2, 3, 5]], P) == 2  # in the span
    assert linalg.rank_mod(u + [[0, 0, 1]], P) == 3  # not in it
    assert not linalg.same_span_mod(u, u + [[0, 0, 1]], P)
    assert linalg.rank_mod(u + v, P) == 2
    # entries need not be reduced; the zero space is spanned by nothing
    assert linalg.same_span_mod([[14, 13, 27]], [[1, 0, 1]], P)
    assert linalg.same_span_mod([], [[0, 0, 0]], P)
    assert not linalg.same_span_mod([], u, P)
    assert u == [[1, 0, 1], [0, 1, 1]]  # left untouched


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

    for _ in range(5):
        low_rank = linalg.mat_mul_mod(
            random_rows(9, 3, rng, p), random_rows(3, 8, rng, p), p
        )  # rank <= 3
        dependent = random_rows(4, 6, rng, p)
        dependent += [[(x + y) % p for x, y in zip(dependent[0], dependent[1])], dependent[2][:]]
        for rows in (
            random_rows(12, 5, rng, p), random_rows(5, 12, rng, p), random_rows(7, 7, rng, p),
            low_rank, dependent,
        ):
            a = [[FieldElement(x, p) for x in row] for row in rows]
            want, want_pivots = reference_rref(a)
            red, pivots = linalg.rref(a)
            assert (red, pivots) == (want, want_pivots)
            ints = [row[:] for row in rows]
            assert linalg.rref_mod(ints, p) == want_pivots
            assert ints == [[x.value for x in row] for row in want]
            assert linalg.rank_mod(rows, p) == len(want_pivots)
            basis = linalg.nullspace_mod([row[:] for row in rows], p)
            # the shape ext relies on: each vector's last nonzero entry is
            # a 1 at its free column, and 0 at the other free columns
            free = [max(j for j, x in enumerate(v) if x) for v in basis]
            assert free == sorted(set(free))
            for v, fc in zip(basis, free):
                assert not any(mat_vec_mod(rows, v, p))
                assert v[fc] == 1
                assert not any(v[g] for g in free if g != fc)
        assert linalg.rank_mod(low_rank, p) <= 3
        assert linalg.rank_mod(dependent, p) <= 4


def test_mixed_moduli_raise():
    a = [[FieldElement(1, 7), FieldElement(2, 7)], [FieldElement(3, 13), FieldElement(4, 13)]]
    with pytest.raises(ValueError, match="modulus mismatch"):
        linalg.rref(a)


def sparse_rows(rows, cols, density, rng, p):
    return [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


@pytest.mark.parametrize("p", [7, 13, 37])
def test_int_kernel_matches_reference_on_ext_shapes(p):
    # the shapes the kernel meets in practice: sparse Ext systems (54x54 to
    # 108x90 at a few percent nonzero), 3x3 rank-2 kernels, zero rows and
    # single columns; the test above sweeps the primes
    rng = random.Random(2000 + p)
    cases = [
        sparse_rows(rows, cols, density, rng, p)
        for rows, cols, density in (
            (54, 54, 0.03), (54, 54, 0.06), (54, 84, 0.03), (40, 30, 0.1), (30, 45, 0.3),
        )
    ]
    for _ in range(10):
        u, v = random_rows(1, 3, rng, p)[0], random_rows(1, 3, rng, p)[0]
        s, t = rng.randrange(p), rng.randrange(p)
        cases.append([u, v, [(s * x + t * y) % p for x, y in zip(u, v)]])  # rank <= 2
    cases += [
        [[0] * 5 for _ in range(4)],
        [[0, 0, 0], [0, 2, 1], [0, 0, 0], [3, 0, 1]],
        [[0], [0]],
        [[5], [0], [p + 3]],
        [[x] for x in random_rows(1, 6, rng, p)[0]],
        [random_rows(1, 6, rng, p)[0]],
    ]
    for rows in cases:
        a = [[FieldElement(x, p) for x in row] for row in rows]
        want, want_pivots = reference_rref(a)
        ints = [row[:] for row in rows]
        assert linalg.rref_mod(ints, p) == want_pivots
        assert ints == [[x.value for x in row] for row in want]
        assert linalg.rank_mod(rows, p) == len(want_pivots)
        for v in linalg.nullspace_mod([row[:] for row in rows], p):
            assert not any(mat_vec_mod(rows, v, p))
    assert linalg.rref_mod([], p) == []
    assert linalg.rank_mod([], p) == 0


def test_kernel_leaves_caller_rows_untouched(rng):
    # a matrix holding the same row list object twice, entries unreduced:
    # an in-place row update that reached a caller's list would change
    # both of its rows
    shared, other = [14, 2, 0, 26], [1, 0, 5, 3]
    rows = [shared, other, shared, [0, 0, 0, 0]]
    snapshot = [row[:] for row in rows]

    m = list(rows)
    assert linalg.rref_mod(m, P) == [0, 1]
    assert m[0] is not shared and m[1] is not other
    assert linalg.rank_mod(rows, P) == 2
    assert linalg.solve_mod(rows, [1, 2, 1, 0], P) is not None
    assert linalg.same_span_mod(rows, [other, shared], P)
    assert linalg.nullspace_mod(list(rows), P)
    assert rows == snapshot and rows[0] is shared and rows[2] is shared
    assert shared == [14, 2, 0, 26] and other == [1, 0, 5, 3]
    for _ in range(20):
        dense = sparse_rows(8, 10, 0.3, rng, P)
        rows = dense + [dense[1], dense[1]]
        snapshot = [row[:] for row in rows]
        linalg.rref_mod(list(rows), P)
        linalg.rank_mod(rows, P)
        linalg.solve_mod(rows, [1] * len(rows), P)
        linalg.same_span_mod(rows, dense, P)
        assert rows == snapshot


# -- the sparse echelon kernel against the dense one ----------------------
#
# Tier-1 runs ECHELON_COUNT random systems; to run more, under -W error:
#
#     PYTHONPATH=src python -W error tests/test_linalg.py 10000

ECHELON_COUNT = 300
ECHELON_SEED = 32


def ext_systems():
    """The 30 sparse systems ext_space hands echelon_mod, (rows, p): its
    trace constraints and generator coordinates at m = -1..3 over F_13,
    F_37 and F_(2^61 - 1)."""
    systems = []
    original = linalg.echelon_mod

    def recording(rows, p):
        rows = list(rows)
        systems.append((rows, p))
        return original(rows, p)

    linalg.echelon_mod = recording
    try:
        for p in (13, 37, 2**61 - 1):
            for m in range(-1, 4):
                ext.ext_space(tuple(FieldElement(v, p) for v in (1, 2, 3)), m)
    finally:
        linalg.echelon_mod = original
    assert len(systems) == 30
    return systems


def echelon_systems(count, seed):
    """ext's systems, then count random ones: 0-12 rows and columns,
    density 0-1, entries in [-3p, 3p), p in {7, 13, 37, 2^61 - 1}."""
    yield from ext_systems()
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((7, 13, 37, 2**61 - 1))
        rows, cols, density = rng.randrange(13), rng.randrange(13), rng.random()
        yield [
            {c: rng.randrange(-3 * p, 3 * p) for c in range(cols) if rng.random() < density}
            for _ in range(rows)
        ], p


def echelon_broken(rows, p):
    """What echelon_mod gets wrong on the sparse rows, against rref_mod:
    a mutated input, keys other than the pivots, a row that is not 1 at
    its key and of residues right of it only, or another span."""
    snapshot = [dict(row) for row in rows]
    basis = linalg.echelon_mod(rows, p)
    width = 1 + max((c for row in rows for c in row), default=-1)
    dense = linalg.densify(rows, width)
    broken = []
    if rows != snapshot:
        broken.append("input mutated")
    if sorted(basis) != linalg.rref_mod([list(row) for row in dense], p):
        broken.append(f"keys {sorted(basis)} are not the pivots")
    for lead, row in basis.items():
        if row.get(lead) != 1 or min(row) != lead or not all(0 < x < p for x in row.values()):
            broken.append(f"row {lead} is no echelon row: {row}")
    if not linalg.same_span_mod(linalg.densify(basis.values(), width), dense, p):
        broken.append("another span")
    return broken


def echelon_failures(count, seed):
    return [
        f"{p} {rows}: {rule}"
        for rows, p in echelon_systems(count, seed)
        for rule in echelon_broken(rows, p)
    ]


def test_echelon_kernel_matches_rref():
    failures = echelon_failures(ECHELON_COUNT, ECHELON_SEED)
    assert not failures, "\n".join(failures[:20])


def test_echelon_checks_catch_a_wrong_basis(monkeypatch):
    # the rules see a kernel that drops its last basis row
    original = linalg.echelon_mod

    def dropped(rows, p):
        basis = original(rows, p)
        if basis:
            del basis[max(basis)]
        return basis

    monkeypatch.setattr(linalg, "echelon_mod", dropped)
    assert echelon_failures(20, ECHELON_SEED)


if __name__ == "__main__":
    import sys

    found = echelon_failures(int(sys.argv[1]) if len(sys.argv) > 1 else ECHELON_COUNT, ECHELON_SEED)
    print("\n".join(found[:50]) or "no broken rule")
    sys.exit(1 if found else 0)
