"""Moore matrices: construction, adjugate, determinant, kernel points.

The Moore matrix of a triple a is M[i][j] = a[i+j] * x[i-j] with indices
mod 3.  Its determinant cuts out a Hesse cubic, its adjugate has a
closed form, and at a rank-2 specialization the projective kernel point
realizes the curve's group law (see the hesse module).

A ProjectivePoint is a triple of normalized int residues; its ``coords``
property is the one conversion to FieldElements, and
ProjectivePoint(FieldElement triple) the one conversion back.
"""

from __future__ import annotations

from . import linalg
from .field import FieldElement, validate_modulus
from .poly import HomForm, sum_of_products

Triple = tuple[FieldElement, FieldElement, FieldElement]


class ProjectivePoint:
    """A point of P^2(F_p), normalized so the first nonzero coordinate is 1.

    The point is its triple of int residues; ``coords`` is the one
    conversion to FieldElements.
    """

    __slots__ = ("residues", "p")

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("projective point needs 3 coordinates")
        self.p = coords[0].p
        if any(c.p != self.p for c in coords):
            raise ValueError("modulus mismatch among coordinates")
        self.residues = normalize_mod([c.value for c in coords], self.p)

    @classmethod
    def from_ints(cls, values, p: int) -> "ProjectivePoint":
        validate_modulus(p)
        values = tuple(values)
        if len(values) != 3:
            raise ValueError("projective point needs 3 coordinates")
        pt = cls.__new__(cls)
        pt.residues = normalize_mod(values, p)
        pt.p = p
        return pt

    @property
    def coords(self) -> Triple:
        p = self.p
        return tuple(FieldElement(v, p) for v in self.residues)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.residues == other.residues and self.p == other.p

    def __hash__(self):
        return hash((self.residues, self.p))

    def coordinate_product(self) -> int:
        x, y, z = self.residues
        return x * y * z % self.p

    def as_ints(self) -> list[int]:
        return list(self.residues)

    def __repr__(self):
        x, y, z = self.residues
        return f"[{x}:{y}:{z}]"


def normalize_mod(values, p: int) -> tuple[int, int, int]:
    """The int triple scaled so its first nonzero residue mod p is 1."""
    x, y, z = values
    x, y, z = x % p, y % p, z % p
    lead = x or y or z
    if not lead:
        raise ValueError("(0,0,0) is not a projective point")
    if lead == 1:
        return x, y, z
    inv = pow(lead, p - 2, p)
    return x * inv % p, y * inv % p, z * inv % p


class FormMatrix:
    """A square matrix of homogeneous forms (sizes 3 and 6 in practice)."""

    __slots__ = ("n", "p", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("matrix must be square")
        self.p = self.entries[0][0].p
        if any(e.p != self.p for row in self.entries for e in row):
            raise ValueError("modulus mismatch among entries")

    @classmethod
    def from_scalars(cls, mat: list[list[int]], p: int) -> "FormMatrix":
        """Lift a scalar matrix of int residues to a matrix of degree-0 forms."""
        return cls([[HomForm.constant(FieldElement(c, p)) for c in row] for row in mat])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        if other.n != self.n:
            raise ValueError("size mismatch")
        n = self.n
        return FormMatrix(
            [
                [
                    sum_of_products((self.entries[i][k], other.entries[k][j]) for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        return FormMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return FormMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self) -> "FormMatrix":
        return FormMatrix([[-e for e in row] for row in self.entries])

    def scale(self, c: FieldElement) -> "FormMatrix":
        return FormMatrix([[e.scale(c) for e in row] for row in self.entries])

    def scale_form(self, g: HomForm) -> "FormMatrix":
        return FormMatrix([[g * e for e in row] for row in self.entries])

    def transpose(self) -> "FormMatrix":
        return FormMatrix([list(col) for col in zip(*self.entries)])

    def trace(self) -> HomForm:
        acc = self.entries[0][0]
        for i in range(1, self.n):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def specialize(self, pt) -> list[list[FieldElement]]:
        """Evaluate every entry at a scalar triple."""
        return [[e.evaluate(pt) for e in row] for row in self.entries]

    def serialize(self) -> list[list[str]]:
        return [[e.serialize() for e in row] for row in self.entries]

    def __repr__(self):
        return f"FormMatrix({self.n}x{self.n}, p={self.p})"


def coordinate_vars(p: int):
    return tuple(HomForm.variable(i, p) for i in range(3))


def _as_triple(a) -> Triple:
    a = tuple(a)
    if len(a) != 3:
        raise ValueError("expected a triple")
    return a


def moore(a, variables=None) -> FormMatrix:
    """The Moore matrix (a[i+j] * vars[i-j]), indices mod 3."""
    a = _as_triple(a)
    p = a[0].p
    if all(c.value == 0 for c in a):
        raise ValueError("Moore matrix of the zero triple")
    if variables is None:
        variables = coordinate_vars(p)
    return FormMatrix(
        [
            [variables[(i - j) % 3].scale(a[(i + j) % 3]) for j in range(3)]
            for i in range(3)
        ]
    )


def moore_scalar(a, b) -> list[list]:
    """The Moore matrix specialized at the scalar triple b, entry (i,j)
    a[i+j] * b[i-j]; the triples may be FieldElements or ints."""
    a0, a1, a2 = _as_triple(a)
    b0, b1, b2 = _as_triple(b)
    return [
        [a0 * b0, a1 * b2, a2 * b1],
        [a1 * b1, a2 * b0, a0 * b2],
        [a2 * b2, a0 * b1, a1 * b0],
    ]


def moore_adjugate(a) -> FormMatrix:
    """Closed-form adjugate of the Moore matrix.

    Entry (i,j) is a[i+j-1]*a[i+j+1]*x[j-i]^2 - a[i+j]^2*x[j-i-1]*x[j-i+1].
    """
    a = _as_triple(a)
    p = a[0].p
    x = coordinate_vars(p)
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            sq = (x[(j - i) % 3] * x[(j - i) % 3]).scale(
                a[(i + j - 1) % 3] * a[(i + j + 1) % 3]
            )
            cross = (x[(j - i - 1) % 3] * x[(j - i + 1) % 3]).scale(
                a[(i + j) % 3] * a[(i + j) % 3]
            )
            row.append(sq - cross)
        out.append(row)
    return FormMatrix(out)


def moore_det(a) -> HomForm:
    """det M_{a,x} = a0*a1*a2*(x0^3+x1^3+x2^3) - (a0^3+a1^3+a2^3)*x0*x1*x2."""
    a = _as_triple(a)
    p = a[0].p
    prod = a[0] * a[1] * a[2]
    cubes = a[0] ** 3 + a[1] ** 3 + a[2] ** 3
    return HomForm(
        3,
        p,
        {
            (3, 0, 0): prod,
            (0, 3, 0): prod,
            (0, 0, 3): prod,
            (1, 1, 1): -cubes,
        },
    )


def adjugate_det(m) -> tuple[list[list], object]:
    """Adjugate and determinant of a 3x3 matrix given as rows of ints,
    FieldElements or HomForms (independent oracle for the closed forms).

    The adjugate comes from the 2x2 minors, the determinant from expanding
    the first row against the adjugate's first column.
    """
    if [len(row) for row in m] != [3, 3, 3]:
        raise ValueError("adjugate_det expects a 3x3 matrix")
    (a, b, c), (d, e, f), (g, h, k) = m
    # entry (i,j) of the adjugate is the (j,i) cofactor
    adj = [
        [e * k - f * h, c * h - b * k, b * f - c * e],
        [f * g - d * k, a * k - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    det = a * adj[0][0] + b * adj[1][0] + c * adj[2][0]
    return adj, det


class KernelError(ValueError):
    """The matrix does not have a one-dimensional null space."""


def left_kernel_mod(m: list[list[int]], p: int) -> tuple[int, int, int]:
    """The normalized residues spanning {c : m @ c = 0 mod p} of a rank-2
    int matrix.

    Read off as the first nonzero column of the adjugate (the columns of
    the adjugate span the null space when rank is 2).  The rank is 2
    exactly when det = 0 and the adjugate is nonzero; the rank itself is
    computed only for the KernelError message.
    """
    adj, det = adjugate_det(m)
    if not det % p:
        for j in range(3):
            col = (adj[0][j] % p, adj[1][j] % p, adj[2][j] % p)
            if any(col):
                return normalize_mod(col, p)
    rank = len(linalg.rref_mod([list(row) for row in m], p))
    raise KernelError(f"rank is {rank}, need exactly 2")


def left_kernel_point(m: list[list[FieldElement]]) -> ProjectivePoint:
    """The projective point spanning {c : m @ c = 0} of a rank-2 matrix."""
    ints, p = linalg.residues(m)
    return ProjectivePoint.from_ints(left_kernel_mod(ints, p), p)


def right_kernel_point(m: list[list[FieldElement]]) -> ProjectivePoint:
    """The projective point spanning the left null space {d : d @ m = 0}."""
    return left_kernel_point([list(col) for col in zip(*m)])
