"""The smooth Hesse cubic as a group.

f = x0^3 + x1^3 + x2^3 - lam*x0*x1*x2 with lam^3 != 27.  The group law
comes from Moore-matrix kernels: b -_E a is the kernel point of the
Moore matrix of a specialized at b, with identity o = [0:-1:1].  Closed
doubling/tripling formulas are the fast path; the Moore kernel is the
reference path, and any disagreement between them is a bug.

HesseCurve is the library's one type for the cubic: it holds lam, the
form f (the f of every MatrixFactorization) and the group law.  Inside
it a point is its triple of normalized int residues mod p;
FieldElement and ProjectivePoint appear only in the arguments and
results of the public methods.
"""

from __future__ import annotations

import math

from .field import FieldElement, primitive_root_of_unity
from .poly import HomForm
from .moore import ProjectivePoint, adjugate_det, left_kernel_mod, moore_scalar, normalize_mod

Residues = tuple[int, int, int]


def iota(coords):
    """The involution swapping coordinates 1 and 2 (negation on E)."""
    c = tuple(coords)
    return (c[0], c[2], c[1])


class HesseCurve:
    """A smooth Hesse cubic over F_p together with its group structure;
    ``form`` is the cubic f itself as a HomForm."""

    def __init__(self, lam: FieldElement):
        p = lam.p
        if pow(lam.value, 3, p) == 27 % p:
            raise ValueError(f"lambda = {lam.value} gives a singular cubic (lambda^3 = 27)")
        self.lam = lam
        self.p = p
        self._lam = lam.value
        one = FieldElement(1, p)
        self.form = HomForm(
            3, p, {(3, 0, 0): one, (0, 3, 0): one, (0, 0, 3): one, (1, 1, 1): -lam}
        )
        self._o = (0, 1, p - 1)
        self._points: list[ProjectivePoint] | None = None

    @classmethod
    def from_lambda(cls, lam_value: int, p: int) -> "HesseCurve":
        return cls(FieldElement(lam_value, p))

    @property
    def identity(self) -> ProjectivePoint:
        return self._point(self._o)

    def __eq__(self, other):
        if not isinstance(other, HesseCurve):
            return NotImplemented
        return self.lam == other.lam

    def __hash__(self):
        return hash(("curve", self.lam))

    def __repr__(self):
        return f"HesseCurve(lambda={self.lam.value}, p={self.p})"

    def _point(self, v) -> ProjectivePoint:
        return ProjectivePoint.from_ints(v, self.p)

    # -- membership ---------------------------------------------------

    def _on_curve(self, v: Residues) -> bool:
        x, y, z = v
        return (x * x * x + y * y * y + z * z * z - self._lam * x * y * z) % self.p == 0

    def _check(self, v: Residues) -> Residues:
        """v, after checking that it lies on the curve."""
        if not self._on_curve(v):
            raise ValueError(f"[{v[0]}:{v[1]}:{v[2]}] is not on {self}")
        return v

    def contains(self, pt: ProjectivePoint) -> bool:
        if pt.p != self.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {pt.p}")
        return self._on_curve(pt.residues)

    def _require(self, pt: ProjectivePoint) -> Residues:
        """The residues of pt, after checking that pt lies on the curve."""
        if not self.contains(pt):
            raise ValueError(f"{pt} is not on {self}")
        return pt.residues

    def enumerate_points(self) -> list[ProjectivePoint]:
        """All of E(F_p) in the order of the normalized representatives
        [0:0:1], [0:1:z], [1:y:z] of P^2, found with a table of cubes
        ([0:0:1] is never on the curve)."""
        if self._points is None:
            p, lam = self.p, self._lam
            cubes = [v * v * v % p for v in range(p)]
            found = [(0, 1, z) for z, c in enumerate(cubes) if (1 + c) % p == 0]
            for y in range(p):
                base = 1 + cubes[y]
                ly = lam * y % p
                found.extend(
                    (1, y, z) for z, c in enumerate(cubes) if (base + c - ly * z) % p == 0
                )
            self._points = [self._point(v) for v in found]
        return list(self._points)

    def hasse_window(self) -> tuple[int, int]:
        """The n with (p+1-n)^2 <= 4p.  isqrt(4p) is floor(2*sqrt(p)),
        and 4p is never a square, so the bounds are exact."""
        s = math.isqrt(4 * self.p)
        return self.p + 1 - s, self.p + 1 + s

    # -- group law ----------------------------------------------------

    def _sub(self, b: Residues, a: Residues) -> Residues:
        return left_kernel_mod(moore_scalar(a, b), self.p)

    def _add(self, x: Residues, a: Residues) -> Residues:
        return left_kernel_mod(moore_scalar(iota(a), x), self.p)

    def _double(self, a: Residues) -> Residues:
        return normalize_mod(doubling_representative(a), self.p)

    def _mul(self, n: int, a: Residues) -> Residues:
        """n*a for n >= 0 by double-and-add; every summand is checked."""
        acc = self._o
        while n:
            self._check(a)
            if n & 1:
                acc = self._add(self._check(acc), a)
            a = self._double(a)
            n >>= 1
        return acc

    def neg(self, a: ProjectivePoint) -> ProjectivePoint:
        return self._point(iota(self._require(a)))

    def sub(self, b: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
        """b -_E a, as the kernel point of the Moore matrix of a at b."""
        va = self._require(a)
        return self._point(self._sub(self._require(b), va))

    def add(self, x: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
        """x +_E a = kernel point of the Moore matrix of iota(a) at x."""
        va = self._require(a)
        return self._point(self._add(self._require(x), va))

    def double(self, a: ProjectivePoint) -> ProjectivePoint:
        return self._point(self._double(self._require(a)))

    def triple(self, a: ProjectivePoint) -> ProjectivePoint:
        """3*a by the closed formula when a0*a1*a2 != 0, else double-and-add."""
        v = self._require(a)
        if not v[0] * v[1] * v[2]:
            return self.mul(3, a)
        return self._point(tripling_representative(v))

    def mul(self, n: int, a: ProjectivePoint) -> ProjectivePoint:
        """n*a by double-and-add; negative n goes through neg."""
        v = self._require(a)
        if n < 0:
            return self.mul(-n, self.neg(a))
        return self._point(self._mul(n, v))

    # -- torsion ------------------------------------------------------

    def torsion3(self) -> set[ProjectivePoint]:
        """E[3]: the nine inflection points [1:-w:0], [0:1:-w], [-w:0:1]."""
        p = self.p
        omega = primitive_root_of_unity(p, 3).value
        pts = set()
        for w in (1, omega, omega * omega):
            for v in ((1, -w, 0), (0, 1, -w), (-w, 0, 1)):
                pts.add(self._point(v))
        return pts

    def torsion6(self) -> set[ProjectivePoint]:
        """E[6](F_p) = {a in E(F_p) : 6*a = o}, by brute force."""
        return {
            a for a in self.enumerate_points() if self._mul(6, a.residues) == self._o
        }

    def torsion6_line_arrangement(self) -> set[ProjectivePoint]:
        """E meets the 12 lines x0*x1*x2*(x0^3-x1^3)(x1^3-x2^3)(x2^3-x0^3).

        Asserted (and tested) to coincide with torsion6.
        """
        p = self.p
        out = set()
        for a in self.enumerate_points():
            x, y, z = a.residues
            c0, c1, c2 = x * x * x, y * y * y, z * z * z
            if not x * y * z * (c0 - c1) * (c1 - c2) * (c2 - c0) % p:
                out.add(a)
        return out

    # -- geometric interpretation checks -------------------------------

    def translation_graph_check(self, a: ProjectivePoint) -> bool:
        """The common zeroes of the three trilinear forms in E x E are
        exactly the pairs (x, x -_E a), and the two Moore rewritings of
        the forms agree symbolically."""
        va = self._require(a)
        if not _trilinear_rewriting_agree(va):
            return False
        p = self.p
        points = [x.residues for x in self.enumerate_points()]
        graph = {(x, self._sub(x, va)) for x in points}
        for x in points:
            for y in points:
                vanishes = all(_trilinear_eval(va, k, x, y) % p == 0 for k in range(3))
                if vanishes != ((x, y) in graph):
                    return False
        return True

    def segre_check(self, a: ProjectivePoint, x: ProjectivePoint) -> bool:
        """The specialized adjugate is the outer product
        (x -_E a)^T * (-_E x -_E a), projectively."""
        va = self._require(a)
        vx = self._require(x)
        p = self.p
        adj, _ = adjugate_det(moore_scalar(va, vx))
        adj = [[c % p for c in row] for row in adj]
        if not any(c for row in adj for c in row):
            raise ValueError("specialized adjugate is zero")
        left = self._sub(vx, va)
        right = self._sub(iota(vx), va)
        outer = [[u * v % p for v in right] for u in left]
        return _proportional(adj, outer, p)


def curve_through(a: ProjectivePoint) -> HesseCurve:
    """The Hesse cubic through a, lam = (a0^3+a1^3+a2^3)/(a0*a1*a2)."""
    x, y, z = a.residues
    p = a.p
    prod = x * y * z % p
    if not prod:
        raise ValueError("point has a zero coordinate; lambda is undefined")
    cubes = x * x * x + y * y * y + z * z * z
    return HesseCurve(FieldElement(cubes * pow(prod, p - 2, p), p))


def doubling_representative(coords) -> tuple:
    """The unnormalized coordinates of 2*a:
    (a0*(a2^3-a1^3), a2*(a1^3-a0^3), a1*(a0^3-a2^3)), from FieldElements
    or from int residues (then unreduced)."""
    a0, a1, a2 = coords
    return (
        a0 * (a2 ** 3 - a1 ** 3),
        a2 * (a1 ** 3 - a0 ** 3),
        a1 * (a0 ** 3 - a2 ** 3),
    )


def extension_representative(coords) -> tuple:
    """The iota twist of the doubling representative:
    (a0*(a2^3-a1^3), a1*(a0^3-a2^3), a2*(a1^3-a0^3)), an unnormalized
    representative of -2*a.  This is the triple whose Moore matrices
    span the degree -1 extension solution space (see the ext module).
    """
    return iota(doubling_representative(coords))


def tripling_representative(coords) -> tuple:
    """Coordinates of 3*a for a0*a1*a2 != 0, denominators cleared by
    (a0*a1*a2)^3.  Like the doubling representative, this takes
    FieldElements or int residues."""
    a0, a1, a2 = coords
    prod = a0 * a1 * a2
    if not prod:
        raise ValueError("tripling formula needs a0*a1*a2 != 0")
    c0, c1, c2 = a0 ** 3, a1 ** 3, a2 ** 3
    s6 = c0 * c0 + c1 * c1 + c2 * c2
    cross = c0 * c1 + c1 * c2 + c0 * c2
    p3 = prod ** 3
    three_p3 = p3 + p3 + p3
    return (
        (s6 - cross) * prod,
        c0 * c0 * c1 + c1 * c1 * c2 + c2 * c2 * c0 - three_p3,
        c0 * c0 * c2 + c1 * c1 * c0 + c2 * c2 * c1 - three_p3,
    )


def _trilinear_eval(a, k: int, x, y) -> int:
    """f_k = sum_j a[k+j] * x[k-j] * y[j] (indices mod 3), on residues."""
    return sum(a[(k + j) % 3] * x[(k - j) % 3] * y[j] for j in range(3))


def _trilinear_rewriting_agree(a) -> bool:
    """M_{a,x} y^T and M_{iota(a),y} x^T have identical coefficient
    tensors, both equal to the trilinear forms f_k."""
    ai = iota(a)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                lhs = a[(k + j) % 3] if i == (k - j) % 3 else 0
                rhs = ai[(k + i) % 3] if j == (k - i) % 3 else 0
                if lhs != rhs:
                    return False
    return True


def _proportional(m1, m2, p: int) -> bool:
    """Projective equality of two nonzero matrices of residues mod p."""
    u = [c for row in m1 for c in row]
    v = [c for row in m2 for c in row]
    k = next((i for i, c in enumerate(u) if c), None)
    if k is None or not v[k]:
        return False
    return all((ui * v[k] - vi * u[k]) % p == 0 for ui, vi in zip(u, v))
