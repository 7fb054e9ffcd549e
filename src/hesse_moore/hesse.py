"""The smooth Hesse cubic as a group.

f = x0^3 + x1^3 + x2^3 - lam*x0*x1*x2 with lam^3 != 27.  The group law
comes from Moore-matrix kernels: b -_E a is the kernel point of the
Moore matrix of a specialized at b, with identity o = [0:-1:1].  Closed
doubling/tripling formulas are the fast path; the Moore kernel is the
reference path, and any disagreement between them is a bug.
"""

from __future__ import annotations

import math

from .field import FieldElement, one as f_one, primitive_root_of_unity, zero as f_zero
from .poly import HesseCubicForm, HomForm
from .moore import ProjectivePoint, adjugate_det, left_kernel_point, moore_scalar


def iota(coords):
    """The involution swapping coordinates 1 and 2 (negation on E)."""
    c = tuple(coords)
    return (c[0], c[2], c[1])


class HesseCurve:
    """A smooth Hesse cubic over F_p together with its group structure."""

    def __init__(self, lam: FieldElement):
        self.cubic = HesseCubicForm(lam)  # rejects singular lambda
        self.lam = lam
        self.p = lam.p
        self._points: list[ProjectivePoint] | None = None

    @classmethod
    def from_lambda(cls, lam_value: int, p: int) -> "HesseCurve":
        return cls(FieldElement(lam_value, p))

    @property
    def form(self) -> HomForm:
        return self.cubic.form

    @property
    def identity(self) -> ProjectivePoint:
        return ProjectivePoint.from_ints((0, -1, 1), self.p)

    def __eq__(self, other):
        if not isinstance(other, HesseCurve):
            return NotImplemented
        return self.lam == other.lam

    def __hash__(self):
        return hash(("curve", self.lam))

    def __repr__(self):
        return f"HesseCurve(lambda={self.lam.value}, p={self.p})"

    # -- membership ---------------------------------------------------

    def contains(self, pt: ProjectivePoint) -> bool:
        return self.form.evaluate(pt.coords).value == 0

    def _require(self, pt: ProjectivePoint) -> None:
        if not self.contains(pt):
            raise ValueError(f"{pt} is not on {self}")

    def enumerate_points(self) -> list[ProjectivePoint]:
        """All of E(F_p), by scanning normalized representatives of P^2."""
        if self._points is None:
            p = self.p
            pts = []
            reps = [(0, 0, 1)]
            reps += [(0, 1, z) for z in range(p)]
            reps += [(1, y, z) for y in range(p) for z in range(p)]
            for rep in reps:
                pt = ProjectivePoint.from_ints(rep, p)
                if self.contains(pt):
                    pts.append(pt)
            self._points = pts
        return list(self._points)

    def hasse_window(self) -> tuple[int, int]:
        """The n with (p+1-n)^2 <= 4p.  isqrt(4p) is floor(2*sqrt(p)),
        and 4p is never a square, so the bounds are exact."""
        s = math.isqrt(4 * self.p)
        return self.p + 1 - s, self.p + 1 + s

    # -- group law ----------------------------------------------------

    def neg(self, a: ProjectivePoint) -> ProjectivePoint:
        self._require(a)
        return ProjectivePoint(iota(a.coords))

    def sub(self, b: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
        """b -_E a, as the kernel point of the Moore matrix of a at b."""
        self._require(a)
        self._require(b)
        c = left_kernel_point(moore_scalar(a.coords, b.coords))
        return c

    def add(self, x: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
        """x +_E a = kernel point of the Moore matrix of iota(a) at x."""
        self._require(a)
        self._require(x)
        return left_kernel_point(moore_scalar(iota(a.coords), x.coords))

    def double(self, a: ProjectivePoint) -> ProjectivePoint:
        self._require(a)
        return ProjectivePoint(doubling_representative(a.coords))

    def triple(self, a: ProjectivePoint) -> ProjectivePoint:
        """3*a by the closed formula when a0*a1*a2 != 0, else double-and-add."""
        self._require(a)
        if not a.coordinate_product():
            return self.mul(3, a)
        return ProjectivePoint(tripling_representative(a.coords))

    def mul(self, n: int, a: ProjectivePoint) -> ProjectivePoint:
        """n*a by double-and-add; negative n goes through neg."""
        self._require(a)
        if n < 0:
            return self.mul(-n, self.neg(a))
        acc = self.identity
        cur = a
        while n:
            if n & 1:
                acc = self.add(acc, cur)
            cur = self.double(cur)
            n >>= 1
        return acc

    # -- torsion ------------------------------------------------------

    def torsion3(self) -> set[ProjectivePoint]:
        """E[3]: the nine inflection points [1:-w:0], [0:1:-w], [-w:0:1]."""
        p = self.p
        omega = primitive_root_of_unity(p, 3)
        roots = [f_one(p), omega, omega * omega]
        zero = f_zero(p)
        pts = set()
        for w in roots:
            pts.add(ProjectivePoint((f_one(p), -w, zero)))
            pts.add(ProjectivePoint((zero, f_one(p), -w)))
            pts.add(ProjectivePoint((-w, zero, f_one(p))))
        return pts

    def torsion6(self) -> set[ProjectivePoint]:
        """E[6](F_p) = {a in E(F_p) : 6*a = o}, by brute force."""
        o = self.identity
        return {a for a in self.enumerate_points() if self.mul(6, a) == o}

    def torsion6_line_arrangement(self) -> set[ProjectivePoint]:
        """E meets the 12 lines x0*x1*x2*(x0^3-x1^3)(x1^3-x2^3)(x2^3-x0^3).

        Asserted (and tested) to coincide with torsion6.
        """
        out = set()
        for a in self.enumerate_points():
            c0, c1, c2 = (c ** 3 for c in a.coords)
            prod = a.coordinate_product() * (c0 - c1) * (c1 - c2) * (c2 - c0)
            if not prod:
                out.add(a)
        return out

    # -- geometric interpretation checks -------------------------------

    def translation_graph_check(self, a: ProjectivePoint) -> bool:
        """The common zeroes of the three trilinear forms in E x E are
        exactly the pairs (x, x -_E a), and the two Moore rewritings of
        the forms agree symbolically."""
        self._require(a)
        if not _trilinear_rewriting_agree(a.coords):
            return False
        points = self.enumerate_points()
        graph = {(x, self.sub(x, a)) for x in points}
        for x in points:
            for y in points:
                vanishes = all(
                    _trilinear_eval(a.coords, k, x.coords, y.coords).value == 0
                    for k in range(3)
                )
                if vanishes != ((x, y) in graph):
                    return False
        return True

    def segre_check(self, a: ProjectivePoint, x: ProjectivePoint) -> bool:
        """The specialized adjugate is the outer product
        (x -_E a)^T * (-_E x -_E a), projectively."""
        self._require(a)
        self._require(x)
        adj, _ = adjugate_det(moore_scalar(a.coords, x.coords))
        if all(c.value == 0 for row in adj for c in row):
            raise ValueError("specialized adjugate is zero")
        left = self.sub(x, a)
        right = self.sub(self.neg(x), a)
        outer = [[u * v for v in right.coords] for u in left.coords]
        return _proportional(adj, outer)


def curve_through(a: ProjectivePoint) -> HesseCurve:
    """The Hesse cubic through a, lam = (a0^3+a1^3+a2^3)/(a0*a1*a2)."""
    prod = a.coordinate_product()
    if not prod:
        raise ValueError("point has a zero coordinate; lambda is undefined")
    cubes = a[0] ** 3 + a[1] ** 3 + a[2] ** 3
    return HesseCurve(cubes / prod)


def doubling_representative(coords) -> tuple[FieldElement, ...]:
    """The unnormalized coordinates of 2*a:
    (a0*(a2^3-a1^3), a2*(a1^3-a0^3), a1*(a0^3-a2^3))."""
    a0, a1, a2 = coords
    return (
        a0 * (a2 ** 3 - a1 ** 3),
        a2 * (a1 ** 3 - a0 ** 3),
        a1 * (a0 ** 3 - a2 ** 3),
    )


def extension_representative(coords) -> tuple[FieldElement, ...]:
    """The iota twist of the doubling representative:
    (a0*(a2^3-a1^3), a1*(a0^3-a2^3), a2*(a1^3-a0^3)), an unnormalized
    representative of -2*a.  This is the triple whose Moore matrices
    span the degree -1 extension solution space (see the ext module).
    """
    return iota(doubling_representative(coords))


def tripling_representative(coords) -> tuple[FieldElement, ...]:
    """Coordinates of 3*a for a0*a1*a2 != 0, denominators cleared by
    (a0*a1*a2)^3."""
    a0, a1, a2 = coords
    prod = a0 * a1 * a2
    if not prod:
        raise ValueError("tripling formula needs a0*a1*a2 != 0")
    c0, c1, c2 = a0 ** 3, a1 ** 3, a2 ** 3
    s6 = c0 * c0 + c1 * c1 + c2 * c2
    cross = c0 * c1 + c1 * c2 + c0 * c2
    three = FieldElement(3, a0.p)
    p3 = prod ** 3
    return (
        (s6 - cross) * prod,
        c0 * c0 * c1 + c1 * c1 * c2 + c2 * c2 * c0 - three * p3,
        c0 * c0 * c2 + c1 * c1 * c0 + c2 * c2 * c1 - three * p3,
    )


def _trilinear_eval(a, k: int, x, y) -> FieldElement:
    """f_k = sum_j a[k+j] * x[k-j] * y[j] (indices mod 3)."""
    acc = f_zero(a[0].p)
    for j in range(3):
        acc = acc + a[(k + j) % 3] * x[(k - j) % 3] * y[j]
    return acc


def _trilinear_rewriting_agree(a) -> bool:
    """M_{a,x} y^T and M_{iota(a),y} x^T have identical coefficient
    tensors, both equal to the trilinear forms f_k."""
    ai = iota(a)
    p = a[0].p
    zero = f_zero(p)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                lhs = a[(k + j) % 3] if i == (k - j) % 3 else zero
                rhs = ai[(k + i) % 3] if j == (k - i) % 3 else zero
                if lhs != rhs:
                    return False
    return True


def _proportional(m1, m2) -> bool:
    """Projective equality of two nonzero scalar matrices."""
    ratio = None
    for r1, r2 in zip(m1, m2):
        for c1, c2 in zip(r1, r2):
            if c1.value == 0 and c2.value == 0:
                continue
            if c1.value == 0 or c2.value == 0:
                return False
            r = c1 / c2
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None
