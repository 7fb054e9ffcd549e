"""Homogeneous trivariate polynomials over F_p.

Monomial order is graded lex with x0 > x1 > x2 (plain lex, as forms are
homogeneous); a monomial's position is its index in monomials(degree).
A form stores its modulus once and its ``terms``: the nonzero int
residues as (position, residue) pairs, ascending, leading term first.
``row()`` and ``HomForm.from_row`` are the dense coordinate row, and
``HomForm.from_terms`` builds a form off a few (position, int) terms.
Products never touch exponents: ``product_index(d1, d2)[i][j]``, one
cached table per degree pair, is the position of monomial i of degree
d1 times monomial j of degree d2; ``product_terms``, the one product
loop, sums grids of forms into one flat int row for ``*`` and moore,
laid out as moore's FormMatrix.row(), which owns that layout.
``divide`` by one form (such as the Hesse cubic, leading monomial x0^3)
sweeps a row (divide_row) by the rows of one such table, the multiples
of lm(f), descending; the rest is the remainder r, which
remainder_table gives per monomial.
FieldElement appears only at the edge: the coefficients of
HomForm(degree, p, {exps: FieldElement}) and the point of ``evaluate``
go through field.residues, ``scale`` takes one (and maps the terms,
with no dense row), and the ``coeffs`` view builds them.
``from_residues`` is the int constructor keyed by exponents, and
``residues`` its view, built on each read.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .field import FieldElement, residues, triple_residues, validate_modulus

Exps = tuple[int, int, int]

_VARIABLES = ("x0", "x1", "x2")


def monomials(degree: int) -> list[Exps]:
    """All exponent triples of the given total degree, graded-lex
    descending; none for a negative degree."""
    return [
        (e0, e1, degree - e0 - e1)
        for e0 in range(degree, -1, -1)
        for e1 in range(degree - e0, -1, -1)
    ]


@lru_cache(maxsize=None)
def monomial_index(degree: int) -> MappingProxyType:
    """The position of each exponent triple of the degree in
    monomials(degree), read-only as every caller shares it."""
    return MappingProxyType({e: i for i, e in enumerate(monomials(degree))})


@lru_cache(maxsize=None)
def product_index(d1: int, d2: int) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] is the position in monomials(d1 + d2) of monomial i
    of degree d1 times monomial j of degree d2."""
    index = monomial_index(d1 + d2)
    return tuple(
        tuple(index[(a0 + b0, a1 + b1, a2 + b2)] for b0, b1, b2 in monomials(d2))
        for a0, a1, a2 in monomials(d1)
    )


def _check_exponents(exps, degree: int) -> None:
    if len(exps) != 3 or sum(exps) != degree or min(exps) < 0:
        raise ValueError(f"exponents {exps} do not have degree {degree}")


class HomForm:
    """A homogeneous form in x0, x1, x2 of a fixed degree over F_p, with
    its nonzero int residue coefficients as (position, residue) terms."""

    __slots__ = ("degree", "p", "terms")

    def __init__(self, degree: int, p: int, coeffs: dict[Exps, FieldElement] | None = None):
        validate_modulus(p)
        coeffs = coeffs or {}
        values, q = residues(coeffs.values())
        if q not in (None, p):
            raise ValueError("coefficient modulus mismatch")
        self.degree, self.p = degree, p
        self.terms = HomForm.from_residues(degree, p, dict(zip(coeffs, values))).terms

    @classmethod
    def zero(cls, degree: int, p: int) -> "HomForm":
        return cls(degree, p)

    @classmethod
    def from_row(cls, degree: int, p: int, row) -> "HomForm":
        """The form with coordinate row ``row`` over monomials(degree), its
        ints reduced mod p."""
        size = len(monomial_index(degree))
        if len(row) != size:
            raise ValueError(f"a degree-{degree} form has {size} coordinates, got {len(row)}")
        return split_row(degree, p, row)[0]

    @classmethod
    def from_residues(cls, degree: int, p: int, residues: dict[Exps, int]) -> "HomForm":
        """The form with int coefficients, each reduced mod p and dropped
        when zero; exponents not of the degree are a ValueError."""
        index = monomial_index(degree)
        for e in residues.keys() - index.keys():
            _check_exponents(e, degree)
        return cls.from_terms(degree, p, [(index[e], v) for e, v in residues.items()])

    @classmethod
    def from_terms(cls, degree: int, p: int, terms) -> "HomForm":
        """The form with (position, int) terms at distinct positions of
        monomials(degree), in any order, each int reduced mod p and
        dropped when zero; any other position is a ValueError."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        validate_modulus(p)
        size, last, kept = len(monomial_index(degree)), -1, []
        for i, v in sorted(terms):
            if not last < i < size:
                raise ValueError(f"position {i} repeated or not below {size} at degree {degree}")
            last = i
            if r := v % p:
                kept.append((i, r))
        return _with_terms(degree, p, kept)

    @classmethod
    def variable(cls, i: int, p: int) -> "HomForm":
        return cls.from_residues(1, p, {tuple(int(k == i) for k in range(3)): 1})

    def row(self) -> list[int]:
        """The coordinates over monomials(degree), zeros included."""
        out = [0] * len(monomial_index(self.degree))
        for i, v in self.terms:
            out[i] = v
        return out

    @property
    def residues(self) -> dict[Exps, int]:
        """The nonzero coefficients keyed by exponent triple, built on each read."""
        return {e: v for e, v in zip(monomials(self.degree), self.row()) if v}

    @property
    def coeffs(self) -> dict[Exps, FieldElement]:
        """The coefficients as FieldElements, built on each read."""
        return {e: FieldElement(v, self.p) for e, v in self.residues.items()}

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exps) -> int:
        return self.residues.get(tuple(exps), 0)

    def _check(self, other: "HomForm") -> None:
        if not isinstance(other, HomForm):
            raise TypeError("expected HomForm")
        if other.p != self.p:
            raise ValueError("modulus mismatch")

    def _combine(self, other: "HomForm", sign: int) -> "HomForm":
        self._check(other)
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        row = self.row()
        for i, v in other.terms:
            row[i] += sign * v
        return _form(self.degree, self.p, row)

    def __add__(self, other: "HomForm") -> "HomForm":
        return self._combine(other, 1)

    def __sub__(self, other: "HomForm") -> "HomForm":
        return self._combine(other, -1)

    def __neg__(self) -> "HomForm":
        return _with_terms(self.degree, self.p, [(i, self.p - v) for i, v in self.terms])

    def __mul__(self, other: "HomForm") -> "HomForm":
        self._check(other)
        return _form(self.degree + other.degree, self.p, product_terms([([[self]], [[other]])]))

    def scale(self, c: FieldElement) -> "HomForm":
        if c.p != self.p:
            raise ValueError("modulus mismatch")
        s, p = c.value, self.p
        return _with_terms(self.degree, p, [(i, r) for i, v in self.terms if (r := s * v % p)])

    def __eq__(self, other):
        if not isinstance(other, HomForm):
            return NotImplemented
        # zero forms of different declared degrees are still distinct values
        return self.p == other.p and self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree, self.p, tuple(self.terms)))

    def evaluate(self, pt) -> int:
        """The residue of the form at a triple of field elements."""
        p = self.p
        (x, y, z), q = triple_residues(pt)
        if q != p:
            raise ValueError("modulus mismatch")
        return sum(
            v * pow(x, e0, p) * pow(y, e1, p) * pow(z, e2, p)
            for (e0, e1, e2), v in self.residues.items()
        ) % p

    def serialize(self) -> str:
        """Canonical text form: 'c*x0^e0*x1^e1*x2^e2 + ...' in graded-lex order."""
        if not self.terms:
            return "0"
        monos = monomials(self.degree)
        parts = []
        for i, v in self.terms:
            factors = [str(v)] + [f"x{k}^{e}" for k, e in enumerate(monos[i]) if e]
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str, degree: int, p: int) -> "HomForm":
        """Inverse of serialize; the variables are x0, x1 and x2, and an
        exponent, when a '^' is written, must follow it."""
        text = text.strip()
        acc: dict[Exps, int] = {}
        if text != "0":
            for term in text.split("+"):
                factors = term.strip().split("*")
                c = int(factors[0])
                exps = [0, 0, 0]
                for fac in factors[1:]:
                    var, caret, e = fac.partition("^")
                    if var not in _VARIABLES:
                        raise ValueError(f"unknown variable {var!r}: expected x0, x1 or x2")
                    if caret and not e:
                        raise ValueError(f"empty exponent in {fac!r}")
                    exps[_VARIABLES.index(var)] += int(e) if caret else 1
                key = tuple(exps)
                acc[key] = acc.get(key, 0) + c
        validate_modulus(p)
        # terms whose coefficients cancel mod p are dropped unchecked;
        # from_residues checks the degree and the exponents of the rest
        return cls.from_residues(degree, p, {e: v for e, v in acc.items() if v % p})

    def __repr__(self):
        return f"HomForm({self.serialize()!r}, deg={self.degree}, p={self.p})"


def product_terms(products) -> list[int]:
    """The unreduced coordinate row of sum(X @ Y) over the grids of forms
    (X, Y) in products, r x m and m x c, of one product degree: cells
    row-major, each over its monomials, as FormMatrix.row() lays them
    out.  Each term of X is read once per k."""
    X, Y = products[0]
    size = len(monomial_index(X[0][0].degree + Y[0][0].degree))
    stride = len(Y[0]) * size
    acc = [0] * (len(X) * stride)
    for X, Y in products:
        table = product_index(X[0][0].degree, Y[0][0].degree)
        for base, x_row in zip(range(0, len(acc), stride), X):
            for x, y_row in zip(x_row, Y):
                for i, v in x.terms:
                    positions = table[i]
                    at = base
                    for y in y_row:
                        for j, w in y.terms:
                            acc[at + positions[j]] += v * w
                        at += size
    return acc


def split_row(degree: int, p: int, row) -> list[HomForm]:
    """The forms whose coordinate rows over monomials(degree), their
    ints reduced mod p, follow one another in row."""
    validate_modulus(p)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    size = len(monomial_index(degree))
    return [_form(degree, p, row[s : s + size]) for s in range(0, len(row), size)]


def _form(degree: int, p: int, row) -> HomForm:
    """HomForm.from_row for a modulus read off a form, so already valid."""
    return _with_terms(degree, p, [(i, r) for i, v in enumerate(row) if (r := v % p)])


def _with_terms(degree: int, p: int, terms: list[tuple[int, int]]) -> HomForm:
    """The form with these terms, unchecked: ascending positions, residues in [1, p)."""
    form = HomForm.__new__(HomForm)
    form.degree, form.p, form.terms = degree, p, terms
    return form


def divide(g: HomForm, f: HomForm) -> tuple[HomForm, HomForm]:
    """Single-divisor division g = q*f + r in graded-lex order.

    The remainder r contains no monomial divisible by the leading
    monomial of f, so r = 0 iff f divides g.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if g.p != f.p:
        raise ValueError("modulus mismatch")
    q, r = divide_row(g.row(), g.degree, f)
    return _form(max(g.degree - f.degree, 0), g.p, q), _form(g.degree, g.p, r)


def divide_row(row: list[int], degree: int, f: HomForm) -> tuple[list[int], list[int]]:
    """divide for the degree-d form with unreduced coordinate row
    ``row`` by a nonzero f: the rows of q and of r, which is ``row``
    itself, swept in place and left unreduced."""
    p = f.p
    (lead, lc), *tail = f.terms
    lc_inv = pow(lc, -1, p)
    table = product_index(degree - f.degree, f.degree)
    q = [0] * len(table)
    # row k of the table holds the multiples of monomial k of the quotient
    # degree; subtracting t*f at positions[lead] only changes smaller
    # monomials (lex is a monomial order), so one descending sweep divides
    for k, positions in enumerate(table):
        c = row[positions[lead]] % p
        if not c:
            continue
        t = c * lc_inv % p
        q[k] = t
        row[positions[lead]] = 0
        for j, v in tail:
            row[positions[j]] -= t * v
    return q, row


def remainder_table(f: HomForm, degree: int) -> list[list[tuple[int, int]]]:
    """Per position of monomials(degree), the remainder mod f of that
    monomial x^E as terms (divide(x^E, f)[1].terms).

    The multiples of the leading monomial of f are the rows of a product
    table; one sweep up them reduces each to its cofactor times minus the
    tail of f over the leading coefficient, whose monomials are smaller
    and so already reduced.  Other monomials are their own remainder."""
    p = f.p
    (lead, lc), *tail = f.terms
    scale = -pow(lc, -1, p)
    tail = [(j, v * scale) for j, v in tail]
    size = len(monomial_index(degree))
    table = [[(k, 1)] for k in range(size)]
    for row in reversed(product_index(degree - f.degree, f.degree)):
        acc = [0] * size
        for j, v in tail:
            for e, w in table[row[j]]:
                acc[e] += v * w
        table[row[lead]] = HomForm.from_row(degree, p, acc).terms
    return table
