"""The smooth Hesse cubic as a group.

f = x0^3 + x1^3 + x2^3 - lam*x0*x1*x2 with lam^3 != 27.  The group law
comes from Moore-matrix kernels: b -_E a is the kernel point of the
Moore matrix of a specialized at b, with identity o = [0:-1:1].  Closed
doubling/tripling formulas are the fast path; the Moore kernel is the
reference path, and any disagreement between them is a bug.

HesseCurve is the library's one type for the cubic: it holds lam, the
form f (the f of every MatrixFactorization) and the group law.  It
reads the residue of its FieldElement lam once; inside, lam is that int
and a point is its triple of normalized int residues mod p.  Scalar
multiplication is a signed-digit (NAF) double-and-add whose summands
and accumulator stay reduced but unnormalized, since membership and
the kernel's rank test are homogeneous; it normalizes once, at the end.
FieldElement and ProjectivePoint appear only in the arguments and
results of the public methods.  The battery's own predicates on the
curve live in verify.
"""

from __future__ import annotations

import math
from functools import cached_property

from .field import FieldElement, primitive_root_of_unity
from .poly import HomForm
from .moore import ProjectivePoint, kernel_column_mod, left_kernel_mod, moore_scalar, normalize_mod

Residues = tuple[int, int, int]


def iota(coords):
    """The involution swapping coordinates 1 and 2 (negation on E)."""
    c = tuple(coords)
    return (c[0], c[2], c[1])


class HesseCurve:
    """A smooth Hesse cubic over F_p together with its group structure;
    ``form`` is the cubic f itself as a HomForm."""

    def __init__(self, lam: FieldElement):
        p, self._lam = lam.p, lam.value
        if pow(self._lam, 3, p) == 27 % p:
            raise ValueError(f"lambda = {self._lam} gives a singular cubic (lambda^3 = 27)")
        self.lam = lam
        self.p = p
        self._o = (0, 1, p - 1)
        self._points: list[ProjectivePoint] | None = None

    @cached_property
    def form(self) -> HomForm:
        """The cubic f, built on first read: a point scan never needs it."""
        return HomForm.from_residues(
            3, self.p, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -self._lam}
        )

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
        return f"HesseCurve(lambda={self._lam}, p={self.p})"

    def _point(self, v: Residues) -> ProjectivePoint:
        """The point of a normalized residue triple, taken unchecked."""
        pt = ProjectivePoint.__new__(ProjectivePoint)
        pt.residues, pt.p = v, self.p
        return pt

    # -- membership ---------------------------------------------------

    def _on_curve(self, v: Residues) -> bool:
        x, y, z = v
        return (x * x * x + y * y * y + z * z * z - self._lam * x * y * z) % self.p == 0

    def _check(self, v: Residues, error: type[Exception] = AssertionError) -> Residues:
        """v, after checking that it lies on the curve; the error, internal
        unless the caller gave v, names the normalized point."""
        if not self._on_curve(v):
            x, y, z = normalize_mod(v, self.p)
            raise error(f"[{x}:{y}:{z}] is not on {self}")
        return v

    def contains(self, pt: ProjectivePoint) -> bool:
        if pt.p != self.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {pt.p}")
        return self._on_curve(pt.residues)

    def _require(self, pt: ProjectivePoint) -> Residues:
        """The residues of pt, after checking that pt lies on the curve."""
        if pt.p != self.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {pt.p}")
        return self._check(pt.residues, ValueError)

    def enumerate_points(self) -> list[ProjectivePoint]:
        """All of E(F_p) in the order [0:1:z], [1:y:z] of normalized
        representatives, in O(p) from the lines through o: x0 = 0, where
        z^3 = -1, and each x1 + x2 = t*x0, where a*y^2 - t*a*y + 1 + t^3 = 0
        with a = 3t + lam (a = 0, the tangent at o, has no affine point).
        Every point found is checked against f."""
        if self._points is None:
            p, lam = self.p, self._lam
            sqrt = {r * r % p: r for r in range(p)}
            affine = set()
            for t in range(p):
                a = (3 * t + lam) % p
                s = sqrt.get(a * (t * t * a - 4 * (1 + t * t * t)) % p)
                if a and s is not None:
                    inv = pow(2 * a, -1, p)
                    for y in ((t * a + s) * inv % p, (t * a - s) * inv % p):
                        affine.add((1, y, (t - y) % p))
            found = [(0, 1, z) for z in range(p) if (1 + z * z * z) % p == 0] + sorted(affine)
            for v in found:
                if not self._on_curve(v):
                    raise AssertionError(f"enumerated [{v[0]}:{v[1]}:{v[2]}] is not on {self}")
            self._points = [self._point(v) for v in found]
        return list(self._points)

    def hasse_window(self) -> tuple[int, int]:
        """The n with (p+1-n)^2 <= 4p.  isqrt(4p) is floor(2*sqrt(p)),
        and 4p is never a square, so the bounds are exact."""
        s = math.isqrt(4 * self.p)
        return self.p + 1 - s, self.p + 1 + s

    # -- group law ----------------------------------------------------

    def _mul(self, n: int, a: Residues) -> Residues:
        """n*a for n >= 0 by signed-digit (NAF) double-and-add: a digit +1
        adds the summand through the Moore kernel of its iota, as add does,
        and a digit -1 subtracts it through its own, as sub does.  Every
        summand is checked before it is doubled or added, and the
        accumulator before each kernel addition."""
        p = self.p
        acc = self._o
        while n:
            d0, d1, d2 = doubling_representative(self._check(a))
            if n & 1:
                digit = 2 - (n & 3)
                n -= digit
                m = moore_scalar(iota(a) if digit > 0 else a, self._check(acc))
                acc = kernel_column_mod(m, p)
            a = d0 % p, d1 % p, d2 % p
            n >>= 1
        return normalize_mod(acc, p)

    def neg(self, a: ProjectivePoint) -> ProjectivePoint:
        return self._point(normalize_mod(iota(self._require(a)), self.p))

    def sub(self, b: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
        """b -_E a, as the kernel point of the Moore matrix of a at b."""
        va = self._require(a)
        return self._point(left_kernel_mod(moore_scalar(va, self._require(b)), self.p))

    def add(self, x: ProjectivePoint, a: ProjectivePoint) -> ProjectivePoint:
        """x +_E a = kernel point of the Moore matrix of iota(a) at x."""
        va = self._require(a)
        return self._point(left_kernel_mod(moore_scalar(iota(va), self._require(x)), self.p))

    def double(self, a: ProjectivePoint) -> ProjectivePoint:
        return self._point(normalize_mod(doubling_representative(self._require(a)), self.p))

    def triple(self, a: ProjectivePoint) -> ProjectivePoint:
        """3*a by the closed formula when a0*a1*a2 != 0, else by the ladder
        (the signed digits of 3 are 4 - 1)."""
        v = self._require(a)
        if not v[0] * v[1] * v[2]:
            return self._point(self._mul(3, v))
        return self._point(normalize_mod(tripling_representative(v), self.p))

    def mul(self, n: int, a: ProjectivePoint) -> ProjectivePoint:
        """n*a by the signed-digit ladder; a negative n multiplies iota(a)."""
        v = self._require(a)
        if n < 0:
            n, v = -n, iota(v)
        return self._point(self._mul(n, v))

    # -- torsion ------------------------------------------------------

    def torsion3(self) -> set[ProjectivePoint]:
        """E[3]: the nine inflection points [1:-w:0], [0:1:-w], [-w:0:1]."""
        p = self.p
        omega = primitive_root_of_unity(p, 3)
        pts = set()
        for w in (1, omega, omega * omega):
            for v in ((1, -w, 0), (0, 1, -w), (-w, 0, 1)):
                pts.add(self._point(normalize_mod(v, p)))
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


def curve_through(a: ProjectivePoint) -> HesseCurve:
    """The Hesse cubic through a, lam = (a0^3+a1^3+a2^3)/(a0*a1*a2)."""
    x, y, z = a.residues
    p = a.p
    prod = x * y * z % p
    if not prod:
        raise ValueError("point has a zero coordinate; lambda is undefined")
    cubes = x * x * x + y * y * y + z * z * z
    return HesseCurve(FieldElement(cubes * pow(prod, -1, p), p))


def doubling_representative(coords) -> tuple:
    """The unnormalized coordinates of 2*a:
    (a0*(a2^3-a1^3), a2*(a1^3-a0^3), a1*(a0^3-a2^3)), from FieldElements
    or from int residues (then unreduced)."""
    a0, a1, a2 = coords
    c0, c1, c2 = a0 * a0 * a0, a1 * a1 * a1, a2 * a2 * a2
    return (a0 * (c2 - c1), a2 * (c1 - c0), a1 * (c0 - c2))


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
    c0, c1, c2 = a0 * a0 * a0, a1 * a1 * a1, a2 * a2 * a2
    s6 = c0 * c0 + c1 * c1 + c2 * c2
    cross = c0 * c1 + c1 * c2 + c0 * c2
    p3 = prod * prod * prod
    three_p3 = p3 + p3 + p3
    return (
        (s6 - cross) * prod,
        c0 * c0 * c1 + c1 * c1 * c2 + c2 * c2 * c0 - three_p3,
        c0 * c0 * c2 + c1 * c1 * c0 + c2 * c2 * c1 - three_p3,
    )
