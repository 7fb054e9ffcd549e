"""The acceptance battery: twelve named checks, each an exact algebraic
statement verified by enumeration, symbolic identity, or a seeded random
sweep.

Each check takes the seeded rng and returns a CheckResult with a pass flag
and a short detail string (counts of cases exercised).  Every check counts
the statements it tests, and those that fail, per label in one _Tally,
which alone builds the result: a check passes only when it tested some
statement and none failed, so every check that tests nothing fails as
vacuous.  Sample sizes and primes are fixed inside each check.  run_all
executes all twelve; a prime filter reruns over that prime only the
checks whose signature has a ``primes`` parameter (five), and the others
stay on the primes their statements name.  Each check states its identity
in its own body, apart from two predicates on a curve's public group law
that only the battery uses: segre_check, and translation_graph_check,
which reads both Moore rewritings off moore_scalar.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from inspect import signature
from itertools import product

from . import ext as ext_mod
from . import heisenberg as heis
from . import linalg
from . import ulrich as ulrich_mod
from .field import FieldElement, primitive_root_of_unity, validate_modulus
from .hesse import HesseCurve, extension_representative, iota
from .moore import (
    FormMatrix,
    ProjectivePoint,
    adjugate_det,
    is_scalar_product,
    moore,
    moore_adjugate,
    moore_det,
    moore_scalar,
)
from .poly import monomials


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def smooth_curves(p: int, count: int | None = None) -> list[HesseCurve]:
    """The smooth curves of F_p (lambda^3 != 27), lambda ascending."""
    lams = [l for l in range(p) if pow(l, 3, p) != 27 % p]
    return [HesseCurve.from_lambda(l, p) for l in lams[:count]]


def _random_triple(p: int, rng: random.Random):
    while True:
        a = tuple(FieldElement(rng.randrange(p), p) for _ in range(3))
        if any(a):
            return a


def _random_form_matrix(degree: int, p: int, rng: random.Random) -> FormMatrix:
    k = len(monomials(degree))
    return FormMatrix.from_row(3, degree, p, [rng.randrange(p) for _ in range(9 * k)])


def _nontorsion_points(curve: HesseCurve) -> list[ProjectivePoint]:
    """E(F_p) minus the rational 3-torsion (= points with a zero coordinate)."""
    return [a for a in curve.enumerate_points() if a.coordinate_product()]


def _base_points(primes, rng: random.Random) -> list[ProjectivePoint]:
    """A seeded sample of 10 points with a0*a1*a2 != 0 over every prime,
    drawn from the non-torsion points of all its smooth curves (none over
    F_7: 9 | #E <= 13, so E(F_7) is the 9 flexes)."""
    points = []
    for p in primes:
        pool = [a for curve in smooth_curves(p) for a in _nontorsion_points(curve)]
        points.extend(pool if len(pool) < 10 else rng.sample(pool, 10))
    return points


_NO_BASE_POINTS = "no non-torsion rational points over the selected primes"


class _Tally:
    """The statements one check tested and the ones that failed, per label."""

    def __init__(self):
        self.cases = Counter()
        self.failures = Counter()

    def expect(self, holds, label: str = "case") -> bool:
        """Count one tested statement under label; return whether it holds."""
        self.cases[label] += 1
        if not holds:
            self.failures[label] += 1
        return bool(holds)

    def result(self, name: str, detail: str, holds=True, vacuous="no case tested") -> CheckResult:
        """Pass when some statement was tested, none failed and holds is
        true; having tested nothing fails with "vacuous: " + vacuous."""
        if not self.cases:
            return CheckResult(name, False, "vacuous: " + vacuous)
        return CheckResult(name, bool(holds) and not self.failures, detail)


# -- 1. determinant identity -------------------------------------------


def check_determinant_identity(rng: random.Random):
    p, tally = 13, _Tally()
    for _ in range(200):
        a = _random_triple(p, rng)
        m = moore(a)
        closed = moore_det(a)
        cofactors, det = adjugate_det(m.entries)
        adj = moore_adjugate(a)
        scalar = is_scalar_product([(m, adj)], closed) and is_scalar_product([(adj, m)], closed)
        tally.expect(closed == det and adj == FormMatrix(cofactors) and scalar)
    counts = f"{tally.cases.total()} random triples over F_{p}, {tally.failures.total()} failures"
    return tally.result("determinant identity", counts)


# -- 2. rank lemma ------------------------------------------------------


def check_rank_lemma(rng: random.Random, primes=(7, 13)):
    tally = _Tally()
    for p in primes:
        for curve in smooth_curves(p, 3):
            pts = curve.enumerate_points()
            for a in pts:
                for b in pts:
                    tally.expect(linalg.rank_mod(moore_scalar(a.residues, b.residues), p) == 2)
    pairs = f"{tally.cases.total()} point pairs on {len(primes) * 3} curves"
    return tally.result("rank lemma", f"{pairs}, {tally.failures.total()} of rank != 2")


# -- 3. group law --------------------------------------------------------


def check_group_law(rng: random.Random, primes=(7, 13)):
    tally = _Tally()
    if 13 in primes:
        # identity / inverse / commutativity, exhaustive on E(F_13)
        for curve in smooth_curves(13, 3):
            pts = curve.enumerate_points()
            o = curve.identity
            for a in pts:
                tally.expect(curve.add(a, o) == a)
                tally.expect(curve.add(a, curve.neg(a)) == o)
            for a in pts:
                for b in pts:
                    tally.expect(curve.add(a, b) == curve.add(b, a))
    if 7 in primes:
        # associativity, exhaustive on E(F_7)
        for curve in smooth_curves(7):
            pts = curve.enumerate_points()
            for a in pts:
                for b in pts:
                    ab = curve.add(a, b)
                    for c in pts:
                        tally.expect(curve.add(ab, c) == curve.add(a, curve.add(b, c)))
    def sigma(pt, k=1):
        """sigma^k, translation by k*sigma(o) = k*[1:0:-1]; it needs no cube root of 1."""
        return ProjectivePoint.from_ints(pt.residues[-(k % 3):] + pt.residues[:-(k % 3)], pt.p)

    # closed doubling/tripling vs repeated Moore-kernel addition; the
    # ladder and the kernel law commute with sigma, which fixes the sign of mul
    for p in primes:
        for curve in smooth_curves(p, 3):
            for a in curve.enumerate_points():
                two = curve.add(a, a)
                tally.expect(curve.double(a) == two)
                tally.expect(curve.triple(a) == curve.add(two, a))
                for n in (2, 5, 2**61 + 12345):
                    na = curve.mul(n, a)
                    tally.expect(curve.mul(n, sigma(a)) == sigma(na, n))
                    tally.expect(curve.add(sigma(na), a) == sigma(curve.add(na, a)))
    counts = f"{tally.cases.total()} identities checked, {tally.failures.total()} failures"
    return tally.result("group law", counts)


# -- 4. torsion ----------------------------------------------------------


def check_torsion(rng: random.Random):
    tally = _Tally()
    for p in (7, 13):
        for curve in smooth_curves(p, 3):
            t3 = curve.torsion3()
            on_curve = set(curve.enumerate_points())
            coord_zero = {a for a in on_curve if not a.coordinate_product()}
            t3_ok = len(t3) == 9 and t3 <= on_curve and coord_zero == t3
            tally.expect(t3_ok, f"E[3] of {curve!r}")
            t6_ok = curve.torsion6() == curve.torsion6_line_arrangement()
            tally.expect(t6_ok, f"E[6] of {curve!r}")
    # a curve with fully rational 6-torsion: lambda = 1 over F_31
    curve = HesseCurve.from_lambda(1, 31)
    t6 = curve.torsion6()
    tally.expect(t6 == curve.torsion6_line_arrangement(), f"E[6] of {curve!r}")
    o = curve.identity
    primitive = [a for a in t6 if curve.mul(2, a) != o and curve.mul(3, a) != o]
    detail = f"|E[6]| = {len(t6)}, {len(primitive)} primitive over F_31"
    tally.expect(len(t6) == 36 and len(primitive) == 24, detail)
    failed = "failed: " + "; ".join(tally.failures)
    return tally.result("torsion", failed if tally.failures else detail)


# -- 5. Theorem A classification ----------------------------------------


def check_equivalence_classification(rng: random.Random):
    p, tally = 19, _Tally()
    for curve in smooth_curves(p, 3):
        pts = _nontorsion_points(curve)
        orbits = {a: heis.orbit(a.coords) for a in pts}
        triples = {a: curve.triple(a) for a in pts}
        invs = {a: heis.trace_invariants(a.coords) for a in pts}
        for a in pts:
            tally.expect(len(orbits[a]) == 9, "orbit")
            for b in pts:
                by_inv = invs[a] == invs[b]
                by_orbit = b in orbits[a]
                by_triple = triples[a] == triples[b]
                label = "equivalent" if by_orbit else "inequivalent"
                tally.expect(by_inv == by_orbit == by_triple, label)
                tally.expect(heis.are_equivalent(a.coords, b.coords) == by_inv, "decision")
    pairs, inequivalent = tally.cases["decision"], tally.cases["inequivalent"]
    return tally.result(
        "equivalence classification",
        f"{pairs} pairs over F_{p}, {inequivalent} inequivalent, "
        f"{tally.failures.total() - tally.failures['orbit']} criterion mismatches, "
        f"orbits of 9: {not tally.failures['orbit']}",
        holds=0 < inequivalent < pairs,
    )


# -- 6. conjugation identities -------------------------------------------


def check_conjugation_identities(rng: random.Random, primes=(7, 13)):
    """M_{T(a),x} = T * M_{a,x} * T and
    M_{Sigma(a),x} = Sigma^{-1} * M_{a,x} * Sigma, symbolically, for T and
    Sigma from heis3_matrix (Sigma^{-1} = Sigma^2)."""
    tally = _Tally()
    for p in primes:
        t = FormMatrix.from_scalars(heis.heis3_matrix(1, 1, 0, p), p)
        s = FormMatrix.from_scalars(heis.heis3_matrix(1, 0, 1, p), p)
        for _ in range(20):
            a = _random_triple(p, rng)
            m = moore(a)
            t_ok = moore(heis.t_action(a)) == t @ m @ t
            tally.expect(t_ok and moore(heis.sigma_action(a)) == s @ s @ m @ s)
    counts = f"{tally.cases.total()} symbolic checks, {tally.failures.total()} failures"
    return tally.result("conjugation identities", counts)


# -- 7. characters -------------------------------------------------------


def check_characters(rng: random.Random):
    p, tally = 13, _Tally()
    for n in (3, 6):
        zeta = primitive_root_of_unity(p, n)
        units = [j for j in range(1, n) if math.gcd(j, n) == 1]
        chars = {j: heis.schrodinger_character(n, j, zeta, p) for j in units}
        for i in units:
            for j in units:
                orthogonal = chars[i].inner_product(chars[j]) == int(i == j)
                tally.expect(orthogonal, f"<chi_{i}, chi_{j}> of H_{n}")
    tally.expect(heis.verify_restriction(6, 3, 1, p), "restriction (6,3,1)")
    tally.expect(heis.verify_tensor_h3(p), "tensor on H_3")
    detail = "orthogonality n=3, orthogonality n=6, restriction (6,3,1), tensor on H_3"
    failed = "failed: " + ", ".join(tally.failures)
    return tally.result("characters", (failed if tally.failures else detail) + f" over F_{p}")


# -- 8. partner lemma -----------------------------------------------------


def _in_column_space(left_kernel: list[list[int]], b: list[int], p: int) -> bool:
    """Whether b is in the column space of a system, given a basis of the
    system's left null space."""
    return not any(sum(y * x for y, x in zip(row, b)) % p for row in left_kernel)


def check_partner_lemma(rng: random.Random):
    p = 13
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    fac = ulrich_mod.moore_factorization(a)
    b = extension_representative(a)
    # linear candidates: mostly random (divisibility almost surely fails),
    # plus constructed ones where it holds, so both branches are exercised
    candidates = [_random_form_matrix(1, p, rng) for _ in range(96)]
    mb = moore(b)
    candidates += [fac.A, mb, mb.scale(FieldElement(5, p)), fac.A + mb]
    # whether some quadratic D solves A*D + C*B = 0, and whether some D
    # solves D*A + B*C = 0: the systems' columns are the coordinates of
    # A @ E (resp. E @ A) for the quadratic unit matrices E, and a right
    # side is solvable when every y with y @ system = 0 kills it
    e_a, a_e = ext_mod.unit_products(fac.A, 2)
    left, right = linalg.nullspace_mod(a_e, p), linalg.nullspace_mod(e_a, p)
    tally = _Tally()
    for C in candidates:
        ca = _in_column_space(left, (-(C @ fac.B)).row(), p)
        cb = _in_column_space(right, (-(fac.B @ C)).row(), p)
        cc = ulrich_mod.bcb_divisible(fac, C)
        if tally.expect(ca == cb == cc, "condition") and cc:
            try:
                D = ulrich_mod.partner_D(fac, C)  # verifies both identities
                round_trip = ulrich_mod.recover_C(fac, D) == C
            except (ulrich_mod.FactorizationError, AssertionError):
                round_trip = False
            tally.expect(round_trip, "round trip")
    positive = tally.cases["round trip"]
    return tally.result(
        "partner lemma",
        f"{tally.cases['condition']} candidates, {positive} with partners, "
        f"{tally.failures['condition']} condition mismatches, "
        f"{tally.failures['round trip']} round-trip failures",
        holds=positive >= 4,
    )


# -- 9. trace lemma --------------------------------------------------------


def check_trace_lemma(rng: random.Random):
    p, tally = 13, _Tally()
    a = tuple(FieldElement(v, p) for v in (1, 2, 3))
    fac = ulrich_mod.moore_factorization(a)
    for k in range(100):
        C = _random_form_matrix(k % 3, p, rng)
        tally.expect(ulrich_mod.bcb_congruence(fac, C), "congruence")
        agree = ulrich_mod.trace_criterion(fac, C) == ulrich_mod.bcb_divisible(fac, C)
        tally.expect(agree, "criterion")
    return tally.result(
        "trace lemma",
        f"{tally.cases['congruence']} random C of degree <= 2: "
        f"{tally.failures['congruence']} congruence failures, "
        f"{tally.failures['criterion']} criterion/divisibility disagreements",
    )


# -- 10. rank-2 Ulrich blocks ----------------------------------------------


def check_rank2_blocks(rng: random.Random, primes=(7, 13)):
    tally = _Tally()
    for a in _base_points(primes, rng):
        try:
            blocks = ulrich_mod.rank2_ulrich(a.coords)  # certifies 6x6 product
            # non-split: the Moore representative of C has divergence 3
            tally.expect(ext_mod.divergence_class(blocks.rank1, blocks.C) == 3)
        except (ValueError, AssertionError):
            tally.expect(False)
    counts = f"{tally.cases.total()} base points certified, {tally.failures.total()} failures"
    return tally.result("rank-2 Ulrich blocks", counts, vacuous=_NO_BASE_POINTS)


# -- 11. extension dimensions -----------------------------------------------


def _divergence_kernel_matches_homotopy(fac, space: ext_mod.ExtSpace) -> bool:
    """The kernel of divergence_class on the m = 0 solution space of the
    Moore factorization fac equals the homotopy subspace, as subspaces."""
    p = fac.f.p
    solutions = [FormMatrix.from_row(3, 1, p, v) for v in space.solutions]
    values = [ext_mod.divergence_class(fac, C) for C in solutions]
    # kernel of the functional sum c_i * values_i on solution coordinates
    kernel_vecs = linalg.mat_mul_mod(linalg.nullspace_mod([values], p), space.solutions, p)
    return linalg.same_span_mod(kernel_vecs, space.generators, p)


def check_ext_dimensions(rng: random.Random, primes=(7, 13)):
    expected = {-2: 0, -1: 3, 0: 1, 1: 0}
    tally = _Tally()
    for a in _base_points(primes, rng):
        fac = ulrich_mod.moore_factorization(a.coords)
        spaces = {m: ext_mod.ext_space(fac, m) for m in expected}
        dims = {m: space.quotient_dimension for m, space in spaces.items()}
        # no homotopies at m = -1, so dimension 3 is 3 independent solutions
        holds = dims == expected and linalg.same_span_mod(
            spaces[-1].solutions, ext_mod.moore_span_basis(a.coords), a.p
        )
        if tally.expect(holds, "point") and tally.cases["kernel"] < 2:
            tally.expect(_divergence_kernel_matches_homotopy(fac, spaces[0]), "kernel")
    return tally.result(
        "extension dimensions",
        f"{tally.cases['point']} base points with dims (0,3,1,0), Moore spans verified, "
        f"{tally.cases['kernel']} divergence kernels compared, {tally.failures.total()} failures",
        vacuous=_NO_BASE_POINTS,
    )


# -- 12. geometric interpretations -------------------------------------------


def _trilinear_eval(a, k: int, x, y) -> int:
    """f_k = sum_j a[k+j] * x[k-j] * y[j] (indices mod 3), on residues."""
    return sum(a[(k + j) % 3] * x[(k - j) % 3] * y[j] for j in range(3))


def _trilinear_rewriting_agree(a) -> bool:
    """M_{a,x} y^T and M_{iota(a),y} x^T have identical coefficient
    tensors, read off moore_scalar at unit vectors, both equal to the
    trilinear forms f_k."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    by_x = [moore_scalar(a, e) for e in units]
    by_y = [moore_scalar(iota(a), e) for e in units]
    return all(
        by_x[i][k][j] == by_y[j][k][i] == _trilinear_eval(a, k, units[i], units[j])
        for k, i, j in product(range(3), repeat=3)
    )


def translation_graph_check(curve: HesseCurve, a: ProjectivePoint) -> bool:
    """The common zeroes of the three trilinear forms in E x E are
    exactly the pairs (x, x -_E a), and the two Moore rewritings of
    the forms agree symbolically."""
    points = curve.enumerate_points()
    graph = {(x.residues, curve.sub(x, a).residues) for x in points}
    va, p = a.residues, curve.p
    pts = [x.residues for x in points]
    return _trilinear_rewriting_agree(va) and all(
        all(_trilinear_eval(va, k, x, y) % p == 0 for k in range(3)) == ((x, y) in graph)
        for x in pts
        for y in pts
    )


def segre_check(curve: HesseCurve, a: ProjectivePoint, x: ProjectivePoint) -> bool:
    """The specialized adjugate is the outer product
    (x -_E a)^T * (-_E x -_E a), projectively: both are nonzero, so
    together they have rank 1."""
    left = curve.sub(x, a).residues
    right = curve.sub(curve.neg(x), a).residues
    p = curve.p
    adj, _ = adjugate_det(moore_scalar(a.residues, x.residues))
    adj = [c % p for row in adj for c in row]
    if not any(adj):
        raise ValueError("specialized adjugate is zero")
    return linalg.rank_mod([adj, [u * v for u in left for v in right]], p) == 1


def check_geometric_interpretations(rng: random.Random):
    p, tally = 7, _Tally()
    for curve in smooth_curves(p):
        pts = curve.enumerate_points()
        for a in pts:
            tally.expect(translation_graph_check(curve, a), "graph")
            for x in pts:
                tally.expect(segre_check(curve, a, x), "segre")
    return tally.result(
        "geometric interpretations",
        f"{tally.cases['graph']} translation graphs and {tally.cases['segre']} Segre products "
        f"over F_{p}, {tally.failures.total()} failures",
    )


# -- the battery ----------------------------------------------------------


ALL_CHECKS = [
    check_determinant_identity,
    check_rank_lemma,
    check_group_law,
    check_torsion,
    check_equivalence_classification,
    check_conjugation_identities,
    check_characters,
    check_partner_lemma,
    check_trace_lemma,
    check_rank2_blocks,
    check_ext_dimensions,
    check_geometric_interpretations,
]


class CheckRaised(CheckResult):
    """The failing result of a check that raised instead of returning."""


def run_all(rng: random.Random, p: int | None = None) -> list[CheckResult]:
    """Run the twelve checks; p, validated first, goes as primes=(p,) to
    each check with that parameter.  A check that raises gives a
    CheckRaised named after its function, and the remaining checks run."""
    if p is not None:
        validate_modulus(p)
    results = []
    for check in ALL_CHECKS:
        filtered = p is not None and "primes" in signature(check).parameters
        kwargs = {"primes": (p,)} if filtered else {}
        try:
            results.append(check(rng, **kwargs))
        except Exception as exc:
            detail = f"raised {type(exc).__name__}: {exc}"
            results.append(CheckRaised(check.__name__, False, detail))
    return results
