"""Moore matrices: construction, adjugate, determinant, kernel points.

The Moore matrix of a triple a is M[i][j] = a[i+j] * x[i-j] with indices
mod 3.  Its determinant cuts out a Hesse cubic, its adjugate has a
closed form, and at a rank-2 specialization the projective kernel point
realizes the curve's group law (see the hesse module).
"""

from __future__ import annotations

from . import linalg
from .field import FieldElement
from .poly import HomForm, sum_of_products

Triple = tuple[FieldElement, FieldElement, FieldElement]


class ProjectivePoint:
    """A point of P^2(F_p), normalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords", "p")

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) != 3:
            raise ValueError("projective point needs 3 coordinates")
        self.p = coords[0].p
        if any(c.p != self.p for c in coords):
            raise ValueError("modulus mismatch among coordinates")
        lead = next((c for c in coords if c.value), None)
        if lead is None:
            raise ValueError("(0,0,0) is not a projective point")
        inv = lead.inv()
        self.coords = tuple(c * inv for c in coords)

    @classmethod
    def from_ints(cls, values, p: int) -> "ProjectivePoint":
        return cls(tuple(FieldElement(v, p) for v in values))

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def coordinate_product(self) -> FieldElement:
        return self.coords[0] * self.coords[1] * self.coords[2]

    def as_ints(self) -> list[int]:
        return [c.value for c in self.coords]

    def __repr__(self):
        a = self.as_ints()
        return f"[{a[0]}:{a[1]}:{a[2]}]"


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
    def from_scalars(cls, mat, p: int) -> "FormMatrix":
        """Lift a scalar matrix to a matrix of degree-0 forms."""
        return cls([[HomForm.constant(c) for c in row] for row in mat])

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

    def pretty(self) -> str:
        cells = self.serialize()
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )

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


def moore_scalar(a, b) -> list[list[FieldElement]]:
    """The Moore matrix specialized at the scalar triple b."""
    a = _as_triple(a)
    b = _as_triple(b)
    return [[a[(i + j) % 3] * b[(i - j) % 3] for j in range(3)] for i in range(3)]


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
    """Adjugate and determinant of a 3x3 matrix given as rows of
    FieldElements or of HomForms (independent oracle for the closed forms).

    The adjugate comes from the 2x2 minors, the determinant from expanding
    the first row against the adjugate's first column.
    """
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError("adjugate_det expects a 3x3 matrix")
    adj = []
    for i in range(3):
        row = []
        for j in range(3):
            # entry (i,j) of the adjugate is the (j,i) cofactor
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            row.append(-minor if (i + j) % 2 else minor)
        adj.append(row)
    det = m[0][0] * adj[0][0] + m[0][1] * adj[1][0] + m[0][2] * adj[2][0]
    return adj, det


class KernelError(ValueError):
    """The matrix does not have a one-dimensional null space."""


def left_kernel_point(m: list[list[FieldElement]]) -> ProjectivePoint:
    """The projective point spanning {c : m @ c = 0} of a rank-2 matrix.

    Extracted as the first nonzero column of the scalar adjugate (the
    columns of the adjugate span the null space when rank is 2).  The
    rank is 2 exactly when det = 0 and the adjugate is nonzero.
    """
    adj, det = adjugate_det(m)
    if not det:
        for j in range(3):
            col = [adj[i][j] for i in range(3)]
            if any(c.value for c in col):
                return ProjectivePoint(col)
    raise KernelError(f"rank is {linalg.rank(m)}, need exactly 2")


def right_kernel_point(m: list[list[FieldElement]]) -> ProjectivePoint:
    """The projective point spanning the left null space {d : d @ m = 0}."""
    return left_kernel_point([list(col) for col in zip(*m)])
