"""Moore matrices: construction, adjugate, determinant, kernel points.

The Moore matrix of a triple a is M[i][j] = a[i+j] * x[i-j] with indices
mod 3.  Its determinant cuts out a Hesse cubic, its adjugate has a
closed form, and at a rank-2 specialization the projective kernel point
realizes the curve's group law (see the hesse module).

A triple a of FieldElements enters through field.triple_residues, and
the Moore matrix, its adjugate and determinant are built from the int
residues, the first two form by form off each entry's one or two terms
(HomForm.from_terms).  A ProjectivePoint is a triple of normalized int
residues; its ``coords`` property is the one conversion back to
FieldElements.
FormMatrix owns the coordinate row of a matrix of forms: ``row()`` lays
the cells out row-major, each over monomials(degree), and ``from_row``
inverts it.  FormMatrix(entries) checks that its entries are square and
uniform and reads its size, modulus and degree off them; the builders
here whose rows are so by construction use the one unchecked
_form_matrix.  product_row, the one sum of products, checks sizes and
moduli once and runs poly's product_terms into that row, reduced: ``@``
splits it into a matrix, while is_scalar_product compares it and builds
no form.
The kernel of a rank-2 matrix of int residues is kernel_column_mod, an
adjugate column; left_kernel_mod is that column normalized.
"""

from __future__ import annotations

import operator
from itertools import chain, product

from .field import FieldElement, triple_residues, validate_modulus
from .poly import HomForm, monomial_index, product_terms, split_row


class ProjectivePoint:
    """A point of P^2(F_p), normalized so the first nonzero coordinate is 1.

    The point is its triple of int residues; ``coords`` is the one
    conversion to FieldElements.
    """

    __slots__ = ("residues", "p")

    def __init__(self, coords):
        values, self.p = triple_residues(coords)
        self.residues = normalize_mod(values, self.p)

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
    def coords(self) -> tuple[FieldElement, FieldElement, FieldElement]:
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
    inv = pow(lead, -1, p)
    return x * inv % p, y * inv % p, z * inv % p


class FormMatrix:
    """A square n x n matrix of forms (n is 3 or 6 in practice) that all
    share the modulus p and the degree; ``+`` and ``-`` need equal sizes,
    and ``==`` is entry equality, so it is False across n, p or degree."""

    __slots__ = ("n", "p", "degree", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        if not self.n:
            raise ValueError("a matrix needs at least one row")
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("matrix must be square")
        first = self.entries[0][0]
        p, degree = first.p, first.degree
        self.p, self.degree = p, degree
        for e in chain.from_iterable(self.entries):
            if e.p != p or e.degree != degree:
                raise ValueError(f"mixed entries: degree {degree} mod {p} vs {e.degree} mod {e.p}")

    @classmethod
    def from_row(cls, n: int, degree: int, p: int, row) -> "FormMatrix":
        """The n x n matrix of degree-d forms over F_p with coordinate row
        ``row`` (ints reduced mod p), as row() lays it out."""
        if n < 1:
            raise ValueError("a matrix needs at least one row")
        size = n * n * len(monomial_index(degree))
        if len(row) != size:
            what = f"a {n}x{n} matrix of degree-{degree} forms"
            raise ValueError(f"{what} has {size} coordinates, got {len(row)}")
        forms = split_row(degree, p, row)
        return _form_matrix([forms[i * n : i * n + n] for i in range(n)])

    @classmethod
    def from_scalars(cls, mat: list[list[int]], p: int) -> "FormMatrix":
        """Lift a scalar matrix of int residues to a matrix of degree-0 forms."""
        return cls([[HomForm.from_row(0, p, [c]) for c in row] for row in mat])

    def _require_match(self, other: "FormMatrix") -> None:
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n}x{self.n} vs {other.n}x{other.n}")
        if other.p != self.p:
            raise ValueError("modulus mismatch")

    def row(self) -> list[int]:
        """The coordinates as int residues: cells row-major, each over
        monomials(degree); from_row inverts it."""
        return [c for row in self.entries for e in row for c in e.row()]

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        row = product_row([(self, other)])
        return FormMatrix.from_row(self.n, self.degree + other.degree, self.p, row)

    def _combine(self, other: "FormMatrix", op) -> "FormMatrix":
        self._require_match(other)
        return _form_matrix(
            [[op(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "FormMatrix":
        return _form_matrix([[-e for e in row] for row in self.entries])

    def scale(self, c: FieldElement) -> "FormMatrix":
        return _form_matrix([[e.scale(c) for e in row] for row in self.entries])

    def scale_form(self, g: HomForm) -> "FormMatrix":
        return _form_matrix([[g * e for e in row] for row in self.entries])

    def trace(self) -> HomForm:
        return sum((self.entries[i][i] for i in range(1, self.n)), self.entries[0][0])

    def product_trace(self, other: "FormMatrix") -> HomForm:
        """tr(self @ other): the 1 x n^2 row of self's entries times the
        n^2 x 1 column of other's, transposed, in one product."""
        self._require_match(other)
        row, column = [list(chain(*self.entries))], [[e] for e in chain(*zip(*other.entries))]
        flat = product_terms([(row, column)])
        return HomForm.from_row(self.degree + other.degree, self.p, flat)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return self.entries == other.entries

    def serialize(self) -> list[list[str]]:
        return [[e.serialize() for e in row] for row in self.entries]

    def __repr__(self):
        return f"FormMatrix({self.n}x{self.n}, p={self.p})"


def product_row(pairs) -> list[int]:
    """The coordinate row (see FormMatrix.row) of sum(X @ Y for X, Y in
    pairs), reduced mod p, with no form built; sizes, moduli and product
    degrees are checked once per call."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("an empty sum of matrix products has no degree")
    first, other = pairs[0]
    degree = first.degree + other.degree
    for X, Y in pairs:
        first._require_match(X)
        X._require_match(Y)
        if X.degree + Y.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {X.degree + Y.degree}")
    flat = product_terms([(X.entries, Y.entries) for X, Y in pairs])
    return list(map(first.p.__rmod__, flat))


def is_scalar_product(pairs, g: HomForm) -> bool:
    """Whether sum(X @ Y for X, Y in pairs) is g*I: its product_row
    against g's row in each diagonal cell and zeros elsewhere, every
    coefficient, with no form built; False at another degree or modulus."""
    row = product_row(pairs)
    X, Y = pairs[0]
    n, diagonal = X.n, g.row()
    zero = [0] * len(diagonal)
    target = [c for cell in range(n * n) for c in (zero if cell % (n + 1) else diagonal)]
    return (g.degree, g.p) == (X.degree + Y.degree, X.p) and row == target


def _form_matrix(entries: list[list[HomForm]]) -> FormMatrix:
    """FormMatrix(entries), unchecked: for square rows built of uniform forms."""
    out = FormMatrix.__new__(FormMatrix)
    first = entries[0][0]
    out.n, out.p, out.degree = len(entries), first.p, first.degree
    out.entries = entries
    return out


def coordinate_vars(p: int):
    return tuple(HomForm.variable(i, p) for i in range(3))


# the positions of x_k in monomials(1), and of x_k^2 and x_(k-1)*x_(k+1)
# in monomials(2), for k = 0, 1, 2
_X = [tuple(int(t == k) for t in range(3)) for k in range(3)]
_VARIABLE = [monomial_index(1)[x] for x in _X]
_SQUARE_CROSS = [
    (monomial_index(2)[tuple(2 * t for t in x)], monomial_index(2)[tuple(1 - t for t in x)])
    for x in _X
]


def moore(a) -> FormMatrix:
    """The Moore matrix (a[i+j] * x[i-j]), indices mod 3."""
    v, p = triple_residues(a)
    if not any(v):
        raise ValueError("Moore matrix of the zero triple")
    # entry (i, j) is the one term a[i+j] * x[i-j]
    terms = [[[(_VARIABLE[(i - j) % 3], v[(i + j) % 3])] for j in range(3)] for i in range(3)]
    return _form_matrix([[HomForm.from_terms(1, p, t) for t in row] for row in terms])


def moore_scalar(a, b) -> list[list]:
    """The Moore matrix specialized at the scalar triple b, entry (i,j)
    a[i+j] * b[i-j]; the triples may be FieldElements or ints."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [
        [a0 * b0, a1 * b2, a2 * b1],
        [a1 * b1, a2 * b0, a0 * b2],
        [a2 * b2, a0 * b1, a1 * b0],
    ]


def moore_adjugate(a) -> FormMatrix:
    """Closed-form adjugate of the Moore matrix.

    Entry (i,j) is a[i+j-1]*a[i+j+1]*x[j-i]^2 - a[i+j]^2*x[j-i-1]*x[j-i+1].
    """
    v, p = triple_residues(a)
    entries = [[None] * 3 for _ in range(3)]
    for i, j in product(range(3), repeat=2):
        square, cross = _SQUARE_CROSS[(j - i) % 3]
        terms = [(square, v[(i + j - 1) % 3] * v[(i + j + 1) % 3]), (cross, -v[(i + j) % 3] ** 2)]
        entries[i][j] = HomForm.from_terms(2, p, terms)
    return _form_matrix(entries)


def moore_det(a) -> HomForm:
    """det M_{a,x} = a0*a1*a2*(x0^3+x1^3+x2^3) - (a0^3+a1^3+a2^3)*x0*x1*x2."""
    v, p = triple_residues(a)
    prod = v[0] * v[1] * v[2]
    cubes = v[0] ** 3 + v[1] ** 3 + v[2] ** 3
    return HomForm.from_residues(
        3, p, {(3, 0, 0): prod, (0, 3, 0): prod, (0, 0, 3): prod, (1, 1, 1): -cubes}
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


def kernel_column_mod(m: list[list[int]], p: int) -> tuple[int, int, int]:
    """A nonzero column of residues spanning {c : m @ c = 0 mod p} of a
    rank-2 int matrix, unnormalized.

    Read off as the first nonzero column of the adjugate (the columns of
    the adjugate span the null space when rank is 2).  The rank is 2
    exactly when det = 0 and the adjugate is nonzero; the two also give
    the rank that the KernelError names.
    """
    adj, det = adjugate_det(m)
    if not det % p:
        for j in range(3):
            col = (adj[0][j] % p, adj[1][j] % p, adj[2][j] % p)
            if any(col):
                return col
    # det != 0 is rank 3; a zero adjugate leaves rank 1 if an entry is nonzero, else 0
    rank = 3 if det % p else int(any(v % p for row in m for v in row))
    raise KernelError(f"rank is {rank}, need exactly 2")


def left_kernel_mod(m: list[list[int]], p: int) -> tuple[int, int, int]:
    """The normalized residues spanning {c : m @ c = 0 mod p} of a rank-2
    int matrix: kernel_column_mod, normalized."""
    return normalize_mod(kernel_column_mod(m, p), p)
