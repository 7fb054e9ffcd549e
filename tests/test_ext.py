import random

import pytest

from hesse_moore import ext, linalg, verify
from hesse_moore.ext import (
    RepresentationError,
    divergence_class,
    ext_space,
    moore_representative,
    moore_span_basis,
    unit_products,
)
from hesse_moore.field import FieldElement
from hesse_moore.hesse import HesseCurve, extension_representative
from hesse_moore.moore import FormMatrix, coordinate_vars, moore
from hesse_moore.poly import HomForm, divide, monomials, remainder_table
from hesse_moore.ulrich import (
    MatrixFactorization,
    moore_factorization,
    rank2_ulrich,
    trace_criterion,
)

P = 13


def F(v):
    return FieldElement(v, P)


A_POINT = tuple(F(v) for v in (1, 2, 3))


def test_dimension_table():
    dims = {m: ext_space(A_POINT, m).quotient_dimension for m in (-2, -1, 0, 1)}
    assert dims == {-2: 0, -1: 3, 0: 1, 1: 0}


def test_solution_basis_satisfies_trace_condition():
    fac = moore_factorization(A_POINT)
    for m in (-1, 0):
        space = ext_space(A_POINT, m)
        assert space.solutions
        for v in space.solutions:
            assert trace_criterion(fac, FormMatrix.from_row(3, m + 1, P, v))


def test_homotopies_inside_solutions():
    # the representatives are read off the generators' solution
    # coordinates, which needs every generator to be a solution
    for p in (13, 19, 37, 2**61 - 1):
        for m in (0, 1):
            space = ext_space(tuple(FieldElement(v, p) for v in (1, 2, 3)), m)
            sols = space.solutions
            assert space.homotopies and space.generators
            for h in space.homotopies + space.generators:
                assert linalg.rank_mod(sols + [h], p) == len(sols)


def test_ext_space_eliminations(monkeypatch):
    # the quotient costs two sparse eliminations (echelon_mod), of the
    # trace constraints and of the generators' coordinates, with no dense
    # elimination, no null-space vectors and no dense generator rows (at
    # m = -2 there are no unknowns and it costs none); the first read of
    # the solutions reduces the constraint basis with one rref_mod, the
    # representatives and generators are read off with no elimination,
    # the quotient dimension counts the representatives, and the reduced
    # homotopy basis costs one more rref_mod; each on its first read only
    calls = {"rref_mod": 0, "echelon_mod": 0}
    for name in calls:

        def counting(*args, name=name, original=getattr(linalg, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(linalg, name, counting)
    dense = []
    for module, name in ((linalg, "nullspace_mod"), (ext, "unit_products")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original: dense.append(args) or f(*args))

    def count(read):
        calls.update(dict.fromkeys(calls, 0))
        out = read()
        return out, (calls["echelon_mod"], calls["rref_mod"])

    for p in (13, 19, 37, 2**61 - 1):
        a = tuple(FieldElement(v, p) for v in (1, 2, 3))
        for m in range(-2, 3):
            dense.clear()
            space, cost = count(lambda: ext_space(a, m))
            assert cost == ((2 if m >= -1 else 0), 0)
            assert not dense
            solutions, cost = count(lambda: space.solutions)
            assert cost == (0, 1)
            read, cost = count(lambda: (space.solutions, space.representatives, space.generators))
            assert cost == (0, 0)
            assert read[0] is solutions
            again = (space.solutions, space.representatives, space.generators)
            assert all(now is first for now, first in zip(again, read))
            assert space.quotient_dimension == len(space.representatives)
            homs, cost = count(lambda: space.homotopies)
            assert cost == (0, 1)
            assert count(lambda: (space.homotopies, space.constraints, space.solutions))[1] == (0, 0)
            assert space.homotopies is homs


def _space_fields(space):
    return (space, space.solutions, space.representatives, space.generators, space.homotopies)


@pytest.mark.parametrize("p", [13, 19, 37, 2**61 - 1])
def test_ext_space_of_the_moore_factorization_is_that_of_the_triple(p):
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    fac = moore_factorization(a)
    for m in range(-2, 3):
        assert _space_fields(ext_space(fac, m)) == _space_fields(ext_space(a, m))


def test_ext_space_of_a_factorization_builds_and_certifies_none(patch_everywhere):
    # handed a factorization, ext_space neither builds a Moore
    # factorization nor multiplies out A*B and B*A again
    calls = []

    def counted(original):
        return lambda *args: calls.append(original.__name__) or original(*args)

    patch_everywhere("ulrich", "moore_factorization", counted)
    patch_everywhere("moore", "is_scalar_product", counted)
    for p in (13, 2**61 - 1):
        a = tuple(FieldElement(v, p) for v in (1, 2, 3))
        fac = moore_factorization(a)
        calls.clear()
        for m in range(-2, 3):
            _space_fields(ext_space(fac, m))
        assert calls == []
        # the triple builds and certifies its factorization once per call
        ext_space(a, 0)
        assert calls == ["moore_factorization", "is_scalar_product", "is_scalar_product"]


def _invertible(rng, p):
    """A random invertible 3x3 matrix of residues and its inverse."""
    while True:
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        augmented = [row + [int(i == j) for j in range(3)] for i, row in enumerate(m)]
        if linalg.rref_mod(augmented, p) == [0, 1, 2]:
            return m, [row[3:] for row in augmented]


def _equivalent(fac, rng):
    """(L*A*R, R^-1*B*L^-1) for seeded invertible constant L and R, a
    factorization with a non-Moore A, and L and R."""
    p = fac.f.p
    (L, L_inv), (R, R_inv) = _invertible(rng, p), _invertible(rng, p)
    L, L_inv, R, R_inv = (FormMatrix.from_scalars(m, p) for m in (L, L_inv, R, R_inv))
    return MatrixFactorization(L @ fac.A @ R, R_inv @ fac.B @ L_inv, fac.f), L, R


@pytest.mark.parametrize("p", [13, 19, 37, 2**61 - 1])
def test_ext_space_of_an_equivalent_representation(p):
    # C -> L*C*R maps the Moore solutions and homotopy generators onto
    # those of (L*A*R, R^-1*B*L^-1)
    fac = moore_factorization(tuple(FieldElement(v, p) for v in (1, 2, 3)))
    other, L, R = _equivalent(fac, random.Random(3000 + p % 1000))
    assert other.A != fac.A
    dims = [ext_space(other, m).quotient_dimension for m in range(-2, 3)]
    assert dims == [0, 3, 1, 0, 0]
    for m in (-1, 0, 1):
        moore_space, space = ext_space(fac, m), ext_space(other, m)

        def image(rows):
            return [(L @ FormMatrix.from_row(3, m + 1, p, v) @ R).row() for v in rows]

        assert linalg.same_span_mod(space.solutions, image(moore_space.solutions), p)
        assert linalg.same_span_mod(space.generators, image(moore_space.generators), p)


def _h(d):
    """dim S_d, the number of monomials of degree d in x0, x1, x2."""
    return (d + 1) * (d + 2) // 2 if d >= 0 else 0


def test_ext_counts_match_the_hilbert_function():
    # counts that share no elimination with ext_space: C -> tr(B*C) mod f
    # maps Mat_3(S_{m+1}) onto (S/f)_{m+3}, of dimension h(m+3) - h(m);
    # the (U, V) with U*A = A*V are the (g + A*W, g + W*A) for g in S_m
    # and W in Mat_3(S_{m-1}), counted once for g in f*S_{m-3}
    facs = [moore_factorization(tuple(FieldElement(v, p) for v in (1, 2, 3)))
            for p in (13, 37, 2**61 - 1)]
    facs.append(_equivalent(facs[0], random.Random(1700))[0])
    for fac in facs:
        for m in range(-1, 4):
            space = ext_space(fac, m)
            solutions = 9 * _h(m + 1) - _h(m + 3) + _h(m)
            homotopies = 17 * _h(m) - 9 * _h(m - 1) + _h(m - 3)
            assert len(space.solutions) == solutions
            assert len(space.homotopies) == homotopies
            assert space.quotient_dimension == solutions - homotopies


@pytest.mark.parametrize("m", [-2, 0])
def test_ext_space_rejects_what_is_no_rank_1_factorization(m):
    # the trace criterion needs B to be A's adjugate: a 6x6 block and the
    # swapped pair (B, A) are refused before any work
    fac = moore_factorization(A_POINT)
    blocks = rank2_ulrich(A_POINT).factorization
    with pytest.raises(ValueError, match="ext_space needs a 3x3 linear A, got 6x6 of degree 1"):
        ext_space(blocks, m)
    swapped = MatrixFactorization(fac.B, fac.A, fac.f)
    with pytest.raises(ValueError, match="ext_space needs a 3x3 linear A, got 3x3 of degree 2"):
        ext_space(swapped, m)


def test_homotopy_form():
    # each homotopy generator U*A - A*V is reproduced by the basis span
    fac = moore_factorization(A_POINT)
    hom = ext_space(A_POINT, 0).homotopies
    u = FormMatrix.from_scalars([[0, 1, 0], [0, 0, 0], [0, 0, 0]], P)
    gen = u @ fac.A - fac.A @ u
    assert linalg.rank_mod(hom + [gen.row()], P) == len(hom)


def test_moore_span():
    basis = moore_span_basis(A_POINT)
    assert all(isinstance(c, int) and 0 <= c < P for row in basis for c in row)
    # M_{b,x} = sum_k M_{b,e_k} * x_k
    units = [FormMatrix.from_row(3, 0, P, row) for row in basis]
    parts = [u.scale_form(x) for u, x in zip(units, coordinate_vars(P))]
    assert parts[0] + parts[1] + parts[2] == moore(extension_representative(A_POINT))
    assert linalg.rank_mod(basis, P) == 3
    assert linalg.same_span_mod(ext_space(A_POINT, -1).solutions, basis, P)


def test_moore_span_heisenberg_stable():
    from hesse_moore.heisenberg import sigma_action, t_action

    for a in (sigma_action(A_POINT), t_action(A_POINT)):
        assert linalg.same_span_mod(ext_space(a, -1).solutions, moore_span_basis(a), P)


def test_moore_representative_of_moore_matrix():
    b = extension_representative(A_POINT)
    C = moore(b)
    y, U, V = moore_representative(A_POINT, C)
    # U and V are rows of int residues
    for mat in (U, V):
        assert len(mat) == 3
        assert all(len(row) == 3 and all(isinstance(x, int) and 0 <= x < P for x in row)
                   for row in mat)
    assert _rebuilt(A_POINT, y, U, V) == C
    from hesse_moore.ulrich import divergence

    assert divergence(y) == 3


def _rebuilt(a, y, U, V) -> FormMatrix:
    """M_{b,y} + U*A - A*V, with M_{b,y} = sum_k M_{b,e_k} * y_k by form
    products, since the Moore matrix is linear in its variables."""
    fac = moore_factorization(a)
    p = fac.f.p
    units = [FormMatrix.from_row(3, 0, p, row) for row in moore_span_basis(a)]
    m_by = [u.scale_form(y_k) for u, y_k in zip(units, y)]
    u_mat, v_mat = FormMatrix.from_scalars(U, p), FormMatrix.from_scalars(V, p)
    return m_by[0] + m_by[1] + m_by[2] + u_mat @ fac.A - fac.A @ v_mat


def _random_solutions(a, count: int, rng) -> list[FormMatrix]:
    """count random elements of the m = 0 solution space at a."""
    p = a[0].p
    sols = ext_space(a, 0).solutions
    coeffs = [[rng.randrange(p) for _ in sols] for _ in range(count)]
    return [FormMatrix.from_row(3, 1, p, v) for v in linalg.mat_mul_mod(coeffs, sols, p)]


@pytest.mark.parametrize("p", [13, 19, 37, 2**61 - 1])
def test_moore_representative_rebuilds_random_solutions(p, rng):
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    for C in _random_solutions(a, 5, rng):
        assert _rebuilt(a, *moore_representative(a, C)) == C


def test_moore_representative_needs_v_at_some_points():
    # at (1, 2, 3) the representative returned always has V = 0, so only
    # a point like this one tests the sign and the reduction of V
    a = tuple(FieldElement(v, 19) for v in (1, 12, 16))
    nonzero_v = 0
    for C in _random_solutions(a, 5, random.Random(5)):
        y, U, V = moore_representative(a, C)
        assert _rebuilt(a, y, U, V) == C
        nonzero_v += any(map(any, V))
    assert nonzero_v


def test_divergence_class_values():
    b = extension_representative(A_POINT)
    C = moore(b)
    assert divergence_class(A_POINT, C) == 3
    # linearity under scaling
    assert divergence_class(A_POINT, C.scale(F(5))) == 5 * 3 % P
    # homotopy elements map to zero
    space = ext_space(A_POINT, 0)
    for h in space.homotopies[:3]:
        assert divergence_class(A_POINT, FormMatrix.from_row(3, 1, P, h)) == 0


def test_divergence_class_rejects_non_linear_c():
    # A*x0 passes the trace criterion (tr(B*A*x0) = 3*f*x0) but has
    # quadratic entries, so it has no Moore representative M_{b,y} + U*A - A*V
    fac = moore_factorization(A_POINT)
    C = fac.A.scale_form(coordinate_vars(P)[0])
    assert trace_criterion(fac, C)
    for call in (divergence_class, moore_representative):
        with pytest.raises(ValueError, match="C must have linear entries, got degree 2"):
            call(A_POINT, C)


def test_rank2_blocks_are_rejected_where_3x3_is_read():
    # the 6x6 rank-2 block would be read through its top-left 3x3 corner
    A6 = rank2_ulrich(A_POINT).factorization.A
    with pytest.raises(ValueError, match="needs a 3x3 matrix, got 6x6"):
        unit_products(A6, 0)
    with pytest.raises(ValueError, match="C must be 3x3, got 6x6"):
        moore_representative(A_POINT, A6)


def test_divergence_class_rejects_non_solutions():
    x = coordinate_vars(P)
    from hesse_moore.moore import FormMatrix
    from hesse_moore.poly import HomForm

    z = HomForm.zero(1, P)
    C = FormMatrix([[x[0], z, z], [z, x[1], z], [z, z, x[2]]])
    fac = moore_factorization(A_POINT)
    assert not trace_criterion(fac, C)
    with pytest.raises(RepresentationError):
        divergence_class(A_POINT, C)


def test_moore_representative_tests_the_trace_criterion():
    # diag(x0, x1, x2) fails tr(B*C) = 0 mod f, so it is no solution to solve for
    x = coordinate_vars(P)
    z = HomForm.zero(1, P)
    C = FormMatrix([[x[0], z, z], [z, x[1], z], [z, z, x[2]]])
    with pytest.raises(RepresentationError, match=r"tr\(B\*C\) != 0 mod f"):
        moore_representative(A_POINT, C)


def test_divergence_class_builds_one_factorization(monkeypatch):
    calls = []
    counted = ext.moore_factorization

    def counting(a):
        calls.append(a)
        return counted(a)

    monkeypatch.setattr(ext, "moore_factorization", counting)
    assert divergence_class(A_POINT, moore(extension_representative(A_POINT))) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("p", [13, 37, 2**61 - 1])
def test_moore_representative_of_a_factorization_is_that_of_its_triple(p, rng, patch_everywhere):
    # handed the Moore factorization it reads the triple off A's diagonal
    # and builds no factorization of its own
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    fac = moore_factorization(a)
    assert ext.moore_triple(fac) == a
    calls = []
    patch_everywhere("ulrich", "moore_factorization", lambda f: lambda x: calls.append(x) or f(x))
    for C in _random_solutions(a, 4, rng) + [moore(extension_representative(a))]:
        calls.clear()
        want = moore_representative(a, C)
        assert len(calls) == 1
        assert moore_representative(fac, C) == want
        assert divergence_class(fac, C) == divergence_class(a, C)
        assert len(calls) == 2


def test_moore_representative_refuses_a_non_moore_a_before_any_work(patch_everywhere):
    # an equivalent representation, the swapped pair and a rank-2 block
    # are no Moore matrices: a ValueError, with no trace criterion read
    fac = moore_factorization(A_POINT)
    C = moore(extension_representative(A_POINT))
    calls = []
    patch_everywhere("ulrich", "trace_criterion", lambda f: lambda *args: calls.append(1) or f(*args))
    others = (
        _equivalent(fac, random.Random(1701))[0],
        MatrixFactorization(fac.B, fac.A, fac.f),
        rank2_ulrich(A_POINT).factorization,
    )
    for other in others:
        with pytest.raises(ValueError, match="A is not a 3x3 Moore matrix"):
            ext.moore_triple(other)
        for solve in (moore_representative, divergence_class):
            with pytest.raises(ValueError, match="A is not a 3x3 Moore matrix"):
                solve(other, C)
    assert calls == []


def test_check_ext_dimensions_builds_one_factorization_per_base_point(patch_everywhere):
    calls = []
    patch_everywhere("ulrich", "moore_factorization", lambda f: lambda x: calls.append(x) or f(x))
    result = verify.check_ext_dimensions(random.Random(0))
    assert result.passed
    assert len(calls) == 10


def test_representatives_extend_homotopies():
    space = ext_space(A_POINT, 0)
    assert len(space.representatives) == space.quotient_dimension == 1
    hom = space.homotopies
    assert linalg.rank_mod(hom + space.representatives, P) == len(hom) + 1


def test_dimension_table_other_points():
    for vals in ((1, 1, 2), (1, 5, 9)):
        a = tuple(F(v) for v in vals)
        assert ext_space(a, -1).quotient_dimension == 3
        assert ext_space(a, 0).quotient_dimension == 1
        assert linalg.same_span_mod(ext_space(a, -1).solutions, moore_span_basis(a), P)


@pytest.mark.parametrize("p", [13, 19])
@pytest.mark.parametrize("m", [-1, 0, 1])
def test_representatives_match_greedy_span_dim(p, m):
    # the greedy choice: a solution is a representative when it raises the
    # span dimension of the homotopies and the representatives before it
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    space = ext_space(a, m)
    working = list(space.homotopies)
    reps = []
    for v in space.solutions:
        if linalg.rank_mod(working + [v], p) > linalg.rank_mod(working, p):
            working.append(v)
            reps.append(v)
    assert space.representatives == reps
    assert space.quotient_dimension == len(reps)


def unit_matrix(r, c, mono, p):
    """The matrix with the monomial mono at (r, c) and zero forms elsewhere."""
    z = HomForm.zero(sum(mono), p)
    entries = [[z] * 3 for _ in range(3)]
    entries[r][c] = HomForm(sum(mono), p, {mono: FieldElement(1, p)})
    return FormMatrix(entries)


@pytest.mark.parametrize("p", [13, 19])
@pytest.mark.parametrize("deg", [0, 1, 2])
def test_unit_products_match_form_products(p, deg):
    # reference: vec(E @ A) and vec(A @ E) from FormMatrix products with
    # the unit matrices E, in the row order r, c, monomial
    A = moore_factorization(tuple(FieldElement(v, p) for v in (1, 2, 3))).A
    units = [
        unit_matrix(r, c, mono, p) for r in range(3) for c in range(3) for mono in monomials(deg)
    ]
    left = [(E @ A).row() for E in units]
    right = [(A @ E).row() for E in units]
    assert unit_products(A, deg) == (left, right)


@pytest.mark.parametrize("deg", [1, 2])
def test_left_kernel_solvability_matches_solve(deg, rng):
    # the partner-lemma check calls a right side b solvable when y . b = 0
    # for every y with y @ system = 0; that must agree with elimination
    p = 13
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    fac = moore_factorization(a)
    mb = moore(extension_representative(a))
    constructed = [fac.A, mb, mb.scale(FieldElement(5, p)), fac.A + mb]
    for on_left, gens in zip((False, True), reversed(unit_products(fac.A, deg))):
        system = [list(row) for row in zip(*gens)]
        kernel = linalg.nullspace_mod(gens, p)
        assert kernel
        rhs = [[rng.randrange(p) for _ in system] for _ in range(20)]
        # combinations of the generators lie in the column space
        for _ in range(20):
            x = [rng.randrange(p) for _ in gens]
            rhs.append([sum(c * g[i] for c, g in zip(x, gens)) % p for i in range(len(system))])
        if deg == 2:
            # the four constructed candidates of the check, all with partners
            for C in constructed:
                rhs.append((-(fac.B @ C if on_left else C @ fac.B)).row())
        solvable = 0
        for b in rhs:
            by_kernel = not any(sum(y * x for y, x in zip(row, b)) % p for row in kernel)
            assert by_kernel == (linalg.solve_mod(system, b, p) is not None)
            solvable += by_kernel
        assert solvable == len(rhs) - 20


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_unvectorize_inverts_vectorize(p, rng):
    for deg in (0, 1, 2):
        monos = monomials(deg)
        for _ in range(5):
            M = FormMatrix(
                [
                    [
                        HomForm(deg, p, {e: FieldElement(rng.randrange(p), p) for e in monos})
                        for _ in range(3)
                    ]
                    for _ in range(3)
                ]
            )
            vec = M.row()
            assert len(vec) == 9 * len(monos)
            assert FormMatrix.from_row(3, deg, p, vec) == M
            assert FormMatrix.from_row(3, deg, p, vec).row() == vec


@pytest.mark.parametrize("degree, length", [(1, 2), (1, 40), (1, 26), (1, 28), (0, 0), (2, 27)])
def test_unvectorize_rejects_wrong_length(degree, length):
    want = 9 * len(monomials(degree))
    with pytest.raises(ValueError, match=f"has {want} coordinates, got {length}"):
        FormMatrix.from_row(3, degree, P, list(range(1, length + 1)))


def monomial(exps, p):
    return HomForm.from_residues(sum(exps), p, {exps: 1})


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_remainder_table_matches_divide(p):
    rng = random.Random(3000 + p)
    divisors = []
    while len(divisors) < 2:
        try:
            divisors.append(HesseCurve.from_lambda(rng.randrange(p), p).form)
        except ValueError:
            pass  # singular lambda
    # generic divisors too: leading coefficient other than 1, other degrees
    for degree in (1, 2, 3):
        g = HomForm.from_residues(degree, p, {e: rng.randrange(p) for e in monomials(degree)})
        divisors.append(g if not g.is_zero() else HomForm.variable(2, p))
    for f in divisors:
        for degree in range(9):
            # one row per position of monomials(degree), in that order
            table = remainder_table(f, degree)
            assert len(table) == len(monomials(degree))
            for exps, rem in zip(monomials(degree), table):
                assert rem == divide(monomial(exps, p), f)[1].terms


def dense_rref(rows, p):
    """Gauss-Jordan with full-width row updates, independent of linalg."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(x - m[i][c] * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_ext_space(a, m):
    """(m, solutions, homotopies, representatives) of the extension space
    computed the long way: one division by f per constraint column, dense
    elimination, and representatives as the pivot columns of the joined
    [homotopies; solutions] system."""
    fac = moore_factorization(a)
    p = fac.f.p
    sols = []
    if m + 1 >= 0:
        target = [e for e in monomials(m + 3) if e[0] < 3]
        columns = []
        for r in range(3):
            for c in range(3):
                for mu in monomials(m + 1):
                    _, rem = divide(fac.B.entries[c][r] * monomial(mu, p), fac.f.form)
                    columns.append([rem.coefficient(e) for e in target])
        red, pivots = dense_rref([list(row) for row in zip(*columns)], p)
        for fc in (c for c in range(len(columns)) if c not in pivots):
            v = [0] * len(columns)
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc] % p
            sols.append(v)
    homs = []
    if m >= 0:
        ua, av = unit_products(fac.A, m)
        gens = ua + [[-x for x in row] for row in av]
        red, pivots = dense_rref(gens, p)
        homs = red[: len(pivots)]
    _, pivots = dense_rref([list(col) for col in zip(*(homs + sols))], p)
    reps = [sols[c - len(homs)] for c in pivots if c >= len(homs)]
    return m, sols, homs, reps


@pytest.mark.parametrize("p", [13, 19, 31, 37])
def test_ext_space_matches_reference_pipeline(p):
    rng = random.Random(4000 + p)
    points = []
    while len(points) < 3:
        a = tuple(FieldElement(rng.randrange(1, p), p) for _ in range(3))
        try:
            moore_factorization(a)
        except ValueError:
            continue  # singular curve through a
        points.append(a)
    for a in points:
        for m in range(-2, 3):
            want = reference_ext_space(a, m)
            early, late = ext_space(a, m), ext_space(a, m)
            # the homotopies read before, and after, the quotient dimension
            early_homs = early.homotopies
            assert early.quotient_dimension == late.quotient_dimension == len(want[3])
            for space, homs in ((early, early_homs), (late, late.homotopies)):
                assert (space.m, space.solutions, homs, space.representatives) == want
