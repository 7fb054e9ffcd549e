import random

import pytest

from hesse_moore import hesse, linalg
from hesse_moore.field import FieldElement, is_prime
from hesse_moore.hesse import (
    HesseCurve,
    curve_through,
    doubling_representative,
    extension_representative,
    iota,
    tripling_representative,
)
from hesse_moore.moore import ProjectivePoint, left_kernel_mod, moore_scalar
from hesse_moore.verify import segre_check, translation_graph_check

P = 13


def F(v, p=P):
    return FieldElement(v, p)


def T(vals, p=P):
    return tuple(F(v, p) for v in vals)


def pt(vals, p=P):
    return ProjectivePoint.from_ints(vals, p)


def smooth_lambdas(p):
    return [l for l in range(p) if pow(l, 3, p) != 27 % p]


def test_smooth_lambda_sets_frozen():
    assert smooth_lambdas(7) == [0, 1, 2, 4]
    assert [l for l in range(13) if l not in smooth_lambdas(13)] == [1, 3, 9]


def test_singular_lambda_rejected():
    with pytest.raises(ValueError):
        HesseCurve.from_lambda(3, 13)


def test_curve_through():
    curve = curve_through(pt([1, 2, 3]))
    assert curve.lam == F(6)  # (1 + 8 + 27) / 6 = 36/6
    assert curve.contains(pt([1, 2, 3]))
    with pytest.raises(ValueError):
        curve_through(pt([0, 1, 12]))  # zero coordinate


def test_point_counts_frozen_and_in_hasse_window():
    assert len(HesseCurve.from_lambda(6, 13).enumerate_points()) == 18
    for p in (7, 13):
        for lam in smooth_lambdas(p):
            curve = HesseCurve.from_lambda(lam, p)
            lo, hi = curve.hasse_window()
            assert lo <= len(curve.enumerate_points()) <= hi


def test_hasse_window_is_integer_definition():
    # every p = 1 (mod 6) below 2000: the window is {n : (p+1-n)^2 <= 4p}
    primes = [p for p in range(7, 2000, 6) if is_prime(p)]
    assert len(primes) == 148
    for p in primes:
        inside = [n for n in range(2 * p + 3) if (p + 1 - n) ** 2 <= 4 * p]
        assert HesseCurve.from_lambda(0, p).hasse_window() == (inside[0], inside[-1])


def test_identity_and_negation():
    curve = HesseCurve.from_lambda(6, 13)
    o = curve.identity
    assert o.as_ints() == [0, 1, 12]
    assert curve.contains(o)
    a = pt([1, 2, 3])
    assert curve.neg(a) == pt([1, 3, 2])
    assert curve.neg(o) == o
    assert iota((F(1), F(2), F(3))) == T((1, 3, 2))


def test_add_sub_round_trip():
    curve = HesseCurve.from_lambda(6, 13)
    pts = curve.enumerate_points()
    for a in pts:
        for b in pts:
            s = curve.add(a, b)
            assert curve.contains(s)
            assert curve.sub(s, b) == a
            assert curve.add(a, b) == curve.sub(a, curve.neg(b))


def test_membership_enforced():
    curve = HesseCurve.from_lambda(6, 13)
    off = pt([1, 1, 2])
    assert not curve.contains(off)
    with pytest.raises(ValueError):
        curve.add(off, curve.identity)


def test_doubling_representative_frozen():
    # a = (1,2,3): (1*(27-8), 3*(8-1), 2*(1-27)) = (19, 21, -52) = (6, 8, 0)
    b = doubling_representative(T((1, 2, 3)))
    assert tuple(c.value for c in b) == (6, 8, 0)
    assert ProjectivePoint(b).as_ints() == [1, 10, 0]
    assert tuple(c.value for c in extension_representative(T((1, 2, 3)))) == (6, 0, 8)


def test_double_triple_match_kernel_addition():
    for p, lam in [(13, 6), (13, 2), (7, 1)]:
        curve = HesseCurve.from_lambda(lam, p)
        for a in curve.enumerate_points():
            two = curve.add(a, a)
            assert curve.double(a) == two
            assert curve.triple(a) == curve.add(two, a)


def test_tripling_formula_requires_nonzero_product():
    with pytest.raises(ValueError):
        tripling_representative(T((0, 1, 12)))


def test_mul_small_multiples():
    curve = HesseCurve.from_lambda(6, 13)
    a = pt([1, 2, 3])
    o = curve.identity
    acc = o
    for n in range(8):
        assert curve.mul(n, a) == acc
        acc = curve.add(acc, a)
    assert curve.mul(-1, a) == curve.neg(a)
    assert curve.mul(0, a) == o
    # order of the group is 18 here
    assert curve.mul(18, a) == o


def ladder_multipliers(order, rng):
    """The n whose signed digits the ladder tests: small n, runs of ones
    and zeros (2^k - 1 and 2^k + 1), the group order and its neighbours,
    and three random 60-bit n; each with its negative."""
    ns = [0, 1, 2, 3, 7]
    ns += [2**k + s for k in (4, 8, 59) for s in (-1, 1)]
    ns += [order - 1, order, order + 1]
    ns += [rng.getrandbits(60) | (1 << 59) for _ in range(3)]
    return ns + [-n for n in ns if n]


@pytest.mark.parametrize("p", [13, 19, 37])
def test_mul_equals_repeated_kernel_addition_on_every_point(p):
    rng = random.Random(2400 + p)
    for lam in rng.sample(smooth_lambdas(p), 2):
        curve = HesseCurve.from_lambda(lam, p)
        pts = curve.enumerate_points()
        ns = ladder_multipliers(len(pts), rng)
        assert curve.torsion3() <= set(pts)  # the flexes are among them
        for a in pts:
            multiples = [curve.identity]
            for _ in range(len(pts) - 1):
                multiples.append(curve.add(multiples[-1], a))
            for n in ns:
                assert curve.mul(n, a) == multiples[n % len(pts)], (lam, a, n)


def test_mul_is_linear_at_the_61_bit_prime():
    a = pt([1, 2, 3], 2**61 - 1)
    curve = curve_through(a)
    rng = random.Random(61)
    for _ in range(3):
        n, m = (rng.getrandbits(60) | (1 << 59) for _ in range(2))
        na, ma = curve.mul(n, a), curve.mul(m, a)
        assert curve.add(na, ma) == curve.mul(n + m, a)
        assert curve.mul(n, ma) == curve.mul(n * m, a)
        assert curve.mul(-n, a) == curve.neg(na)


def test_mul_checks_every_doubled_summand(monkeypatch):
    curve = HesseCurve.from_lambda(6, 13)
    original = hesse.doubling_representative
    calls = []

    def off_curve_fifth(coords):
        d = original(coords)
        if len(calls) == 4:
            d = (d[0] + 1, d[1], d[2])
        calls.append(d)
        return d

    monkeypatch.setattr(hesse, "doubling_representative", off_curve_fifth)
    with pytest.raises(AssertionError) as caught:
        curve.mul(2**40 + 1, pt([1, 2, 3]))
    bad = ProjectivePoint.from_ints(calls[4], 13)
    assert not curve.contains(bad)
    assert str(caught.value) == f"{bad} is not on HesseCurve(lambda=6, p=13)"
    assert len(calls) == 5  # raised before doubling the bad summand


def test_mul_checks_the_accumulator_before_each_addition(monkeypatch):
    curve = HesseCurve.from_lambda(6, 13)
    original = hesse.kernel_column_mod
    sums = []

    def off_curve_first(m, p):
        col = original(m, p)
        if not sums:
            col = (col[0] + 1, col[1], col[2])
        sums.append(col)
        return col

    monkeypatch.setattr(hesse, "kernel_column_mod", off_curve_first)
    with pytest.raises(AssertionError) as caught:
        curve.mul(5, pt([1, 2, 3]))
    bad = ProjectivePoint.from_ints(sums[0], 13)
    assert not curve.contains(bad)
    assert str(caught.value) == f"{bad} is not on HesseCurve(lambda=6, p=13)"
    assert len(sums) == 1


def test_torsion3():
    for p, lam in [(13, 6), (7, 2)]:
        curve = HesseCurve.from_lambda(lam, p)
        t3 = curve.torsion3()
        assert len(t3) == 9
        on_curve = set(curve.enumerate_points())
        assert t3 <= on_curve
        assert {a for a in on_curve if not a.coordinate_product()} == t3
        for a in t3:
            assert curve.triple(a) == curve.identity


def test_torsion6_line_arrangement_matches_brute_force():
    for p, lam in [(13, 6), (31, 1)]:
        curve = HesseCurve.from_lambda(lam, p)
        assert curve.torsion6() == curve.torsion6_line_arrangement()


def test_full_six_torsion_over_f31():
    curve = HesseCurve.from_lambda(1, 31)
    t6 = curve.torsion6()
    assert len(t6) == 36
    primitive = [
        a for a in t6
        if curve.mul(2, a) != curve.identity and curve.mul(3, a) != curve.identity
    ]
    assert len(primitive) == 24


def test_translation_graph_and_segre_small():
    curve = HesseCurve.from_lambda(1, 7)
    pts = curve.enumerate_points()
    a = pts[0]
    assert translation_graph_check(curve, a)
    for x in pts[:3]:
        assert segre_check(curve, a, x)


# -- the int curve layer against FieldElement oracles ----------------------


def scan_points(curve):
    """E(F_p) by HomForm.evaluate over the normalized representatives of
    P^2, in the order [0:0:1], [0:1:z], [1:y:z]."""
    p = curve.p
    reps = [(0, 0, 1)] + [(0, 1, z) for z in range(p)]
    reps += [(1, y, z) for y in range(p) for z in range(p)]
    out = []
    for rep in reps:
        coords = T(rep, p)
        if curve.form.evaluate(coords) == 0:
            out.append(ProjectivePoint(coords))
    return out


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_enumerate_points_matches_form_evaluation_scan(p):
    rng = random.Random(p)
    for lam in rng.sample(smooth_lambdas(p), 2):
        curve = HesseCurve.from_lambda(lam, p)
        assert curve.enumerate_points() == scan_points(curve)


def test_add_sub_match_field_element_kernels():
    curve = HesseCurve.from_lambda(6, 13)
    pts = curve.enumerate_points()

    def kernel_point(m):
        ints = [[x.value for x in row] for row in m]
        return ProjectivePoint.from_ints(left_kernel_mod(ints, 13), 13)

    for a in pts:
        for b in pts:
            m_sub = moore_scalar(a.coords, b.coords)
            m_add = moore_scalar(iota(a.coords), b.coords)
            assert curve.sub(b, a) == kernel_point(m_sub)
            assert curve.add(b, a) == kernel_point(m_add)
            # and against Gauss-Jordan elimination instead of the adjugate
            (v,) = linalg.nullspace_mod([[x.value for x in row] for row in m_add], 13)
            assert curve.add(b, a) == ProjectivePoint.from_ints(v, 13)


def test_double_triple_match_field_element_formulas():
    for p, lam in [(13, 6), (19, 4), (37, 5)]:
        curve = HesseCurve.from_lambda(lam, p)
        for a in curve.enumerate_points():
            assert curve.double(a) == ProjectivePoint(doubling_representative(a.coords))
            if a.coordinate_product():
                assert curve.triple(a) == ProjectivePoint(tripling_representative(a.coords))


def test_off_curve_and_foreign_points_raise_the_same_errors():
    curve = HesseCurve.from_lambda(6, 13)
    on, off = pt([1, 2, 3]), pt([1, 1, 2])
    message = r"^\[1:1:2\] is not on HesseCurve\(lambda=6, p=13\)$"
    calls = [
        lambda: curve.add(off, on), lambda: curve.add(on, off),
        lambda: curve.sub(off, on), lambda: curve.sub(on, off),
        lambda: curve.neg(off), lambda: curve.double(off), lambda: curve.triple(off),
        lambda: curve.mul(5, off), lambda: curve.mul(-5, off), lambda: curve.mul(0, off),
        lambda: translation_graph_check(curve, off), lambda: segre_check(curve, on, off),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    foreign = pt([1, 2, 3], 7)
    with pytest.raises(ValueError, match="^modulus mismatch: 13 vs 7$"):
        curve.contains(foreign)
    with pytest.raises(ValueError, match="^modulus mismatch: 13 vs 7$"):
        curve.add(on, foreign)


def test_point_counts_divisible_by_nine_in_hasse_window():
    # p = 1 (mod 3) makes E[3] rational, so 9 | #E(F_p)
    rng = random.Random(500)
    primes = [p for p in range(7, 2000, 6) if is_prime(p)]
    for p in primes:
        curve = HesseCurve.from_lambda(rng.choice(smooth_lambdas(p)), p)
        n = len(curve.enumerate_points())
        lo, hi = curve.hasse_window()
        assert n % 9 == 0 and lo <= n <= hi, (p, curve.lam.value, n)


def test_enumerate_points_near_ten_thousand():
    p = 10009
    curve = HesseCurve.from_lambda(random.Random(p).choice(smooth_lambdas(p)), p)
    pts = curve.enumerate_points()
    residues = [q.residues for q in pts]
    assert len(set(residues)) == len(residues)
    assert all(curve.contains(q) for q in pts)
    lo, hi = curve.hasse_window()
    assert len(pts) % 9 == 0 and lo <= len(pts) <= hi


# -- the O(p) enumeration against the O(p^2) scan ---------------------------


def cube_table_points(curve):
    """E(F_p) as residue triples by testing every normalized
    representative [0:1:z], [1:y:z] of P^2 against a table of cubes."""
    p, lam = curve.p, curve.lam.value
    cubes = [v * v * v % p for v in range(p)]
    found = [(0, 1, z) for z, c in enumerate(cubes) if (1 + c) % p == 0]
    for y in range(p):
        base = 1 + cubes[y]
        ly = lam * y % p
        found.extend((1, y, z) for z, c in enumerate(cubes) if (base + c - ly * z) % p == 0)
    return found


def test_enumerate_points_matches_cube_table_scan():
    primes = [p for p in range(7, 400, 6) if is_prime(p)]
    for p in primes:
        rng = random.Random(p)
        for lam in rng.sample(smooth_lambdas(p), 2):
            curve = HesseCurve.from_lambda(lam, p)
            assert [q.residues for q in curve.enumerate_points()] == cube_table_points(curve)


@pytest.mark.parametrize(
    "p, lam, tangent_at_o, tangents",
    [(13, 6, 11, [9]), (31, 1, 10, [16, 22, 25])],
)
def test_enumeration_branches_tangent_lines_through_o(p, lam, tangent_at_o, tangents):
    # on the line x1 + x2 = t*x0, f(1, y, t - y) = a*y^2 - t*a*y + c with
    # a = 3t + lam, c = 1 + t^3 and discriminant a*(t^2*a - 4c)
    def a(t):
        return (3 * t + lam) % p

    def disc(t):
        return a(t) * (t * t * a(t) - 4 * (1 + t ** 3)) % p

    assert [t for t in range(p) if not a(t)] == [tangent_at_o]
    assert [t for t in range(p) if a(t) and not disc(t)] == tangents
    curve = HesseCurve.from_lambda(lam, p)
    pts = curve.enumerate_points()
    assert [q.residues for q in pts] == cube_table_points(curve)

    def on_line(t):
        return [q for q in pts if q.residues[0] == 1 and sum(q.residues[1:]) % p == t]

    # a = 0: the tangent at the flex o meets E only at o
    assert on_line(tangent_at_o) == []
    # a zero discriminant: the line touches E at one point Q, and
    # Q + Q + o collinear makes Q a point of order 2
    for t in tangents:
        (q,) = on_line(t)
        assert q != curve.identity and curve.double(q) == curve.identity


def test_group_law_axioms_sweep():
    primes = [p for p in range(7, 300, 6) if is_prime(p)]
    rng = random.Random(300)
    for p in primes:
        curve = HesseCurve.from_lambda(rng.choice(smooth_lambdas(p)), p)
        pts = curve.enumerate_points()
        a, b, c = (rng.choice(pts) for _ in range(3))
        o = curve.identity
        assert curve.add(a, o) == a and curve.add(o, a) == a
        assert curve.add(a, curve.neg(a)) == o
        assert curve.add(a, b) == curve.add(b, a)
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
        two = curve.add(a, a)
        assert curve.double(a) == two
        assert curve.triple(a) == curve.add(two, a)


def test_group_law_results_are_normalized_points():
    # results are built from residue triples without from_ints; each must
    # equal the validated point of its own residues
    rng = random.Random(11)
    for p in (7, 13, 31, 37):
        curve = HesseCurve.from_lambda(rng.choice(smooth_lambdas(p)), p)
        pts = curve.enumerate_points()
        results = [curve.identity, *pts, *curve.torsion3()]
        for a in pts:
            b = rng.choice(pts)
            results += [curve.neg(a), curve.triple(a), curve.double(a), curve.add(a, b)]
            results += [curve.sub(a, b), curve.mul(rng.randrange(-50, 50), a)]
        for q in results:
            assert q.p == p and isinstance(q.residues, tuple)
            assert q.residues == ProjectivePoint.from_ints(q.residues, p).residues
            assert all(0 <= v < p for v in q.residues)
