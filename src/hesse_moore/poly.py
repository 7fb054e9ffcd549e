"""Homogeneous trivariate polynomials over F_p.

A form stores its modulus once and its coefficients as a map from
exponent triples (e0, e1, e2), with e0+e1+e2 equal to the degree, to
nonzero int residues mod p.  The degrees in play never exceed six, so
nothing fancier is warranted.  Sums, products and division work on the
residues directly.  FieldElement appears only at the edge: the
coefficients of the constructor HomForm(degree, p, {exps: FieldElement})
and the point of ``evaluate`` (whose value is an int) go through
field.residues, ``scale`` takes one, and the ``coeffs`` view builds
them; HomForm.from_residues is the int constructor.

Monomial order is graded lex with x0 > x1 > x2; since all forms are
homogeneous this is plain lex on the exponent triples.  Division by one
form (such as the Hesse cubic of the hesse module, leading monomial
x0^3) therefore has a canonical remainder: ``divide`` sweeps only the
multiples of the leading monomial lm(f), descending, and the rest is r.
``product_terms`` is the one product loop, for ``*`` and matrices alike.
"""

from __future__ import annotations

from .field import FieldElement, residues, triple_residues, validate_modulus

Exps = tuple[int, int, int]

_VARIABLES = ("x0", "x1", "x2")


def monomials(degree: int) -> list[Exps]:
    """All exponent triples of the given total degree, graded-lex descending."""
    if degree < 0:
        return []
    out = [
        (e0, e1, degree - e0 - e1)
        for e0 in range(degree, -1, -1)
        for e1 in range(degree - e0, -1, -1)
    ]
    return out


def _check_exponents(exps, degree: int) -> None:
    if len(exps) != 3 or sum(exps) != degree or min(exps) < 0:
        raise ValueError(f"exponents {exps} do not have degree {degree}")


class HomForm:
    """A homogeneous form in x0, x1, x2 of a fixed degree over F_p, with
    int residue coefficients."""

    __slots__ = ("degree", "p", "residues")

    def __init__(self, degree: int, p: int, coeffs: dict[Exps, FieldElement] | None = None):
        validate_modulus(p)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.p = p
        coeffs = coeffs or {}
        for exps in coeffs:
            _check_exponents(exps, degree)
        values, q = residues(coeffs.values())
        if q not in (None, p):
            raise ValueError("coefficient modulus mismatch")
        self.residues: dict[Exps, int] = {e: v for e, v in zip(coeffs, values) if v}

    @classmethod
    def zero(cls, degree: int, p: int) -> "HomForm":
        return cls(degree, p)

    @classmethod
    def from_residues(cls, degree: int, p: int, residues: dict[Exps, int]) -> "HomForm":
        """The form with int coefficients, each reduced mod p and dropped
        when zero; the exponents are the caller's and are trusted to have
        the degree."""
        validate_modulus(p)
        form = cls.__new__(cls)
        form.degree = degree
        form.p = p
        form.residues = {e: r for e, v in residues.items() if (r := v % p)}
        return form

    @classmethod
    def variable(cls, i: int, p: int) -> "HomForm":
        return cls.from_residues(1, p, {tuple(int(k == i) for k in range(3)): 1})

    @property
    def coeffs(self) -> dict[Exps, FieldElement]:
        """The coefficients as FieldElements, built on each read."""
        p = self.p
        return {e: FieldElement(v, p) for e, v in self.residues.items()}

    def is_zero(self) -> bool:
        return not self.residues

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
        acc = dict(self.residues)
        for e, v in other.residues.items():
            acc[e] = acc.get(e, 0) + sign * v
        return HomForm.from_residues(self.degree, self.p, acc)

    def __add__(self, other: "HomForm") -> "HomForm":
        return self._combine(other, 1)

    def __sub__(self, other: "HomForm") -> "HomForm":
        return self._combine(other, -1)

    def __neg__(self) -> "HomForm":
        negated = {e: -v for e, v in self.residues.items()}
        return HomForm.from_residues(self.degree, self.p, negated)

    def __mul__(self, other: "HomForm") -> "HomForm":
        return sum_of_products([(self, other)])

    def scale(self, c: FieldElement) -> "HomForm":
        if c.p != self.p:
            raise ValueError("modulus mismatch")
        s = c.value
        scaled = {e: s * v for e, v in self.residues.items()}
        return HomForm.from_residues(self.degree, self.p, scaled)

    def __eq__(self, other):
        if not isinstance(other, HomForm):
            return NotImplemented
        # zero forms of different declared degrees are still distinct values
        return (
            self.p == other.p and self.degree == other.degree and self.residues == other.residues
        )

    def __hash__(self):
        return hash((self.degree, self.p, frozenset(self.residues.items())))

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
        if not self.residues:
            return "0"
        parts = []
        for exps in sorted(self.residues, reverse=True):
            factors = [str(self.residues[exps])]
            for i, e in enumerate(exps):
                if e:
                    factors.append(f"x{i}^{e}")
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
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        # terms whose coefficients cancel mod p are dropped unchecked
        form = cls.from_residues(degree, p, acc)
        for exps in form.residues:
            _check_exponents(exps, degree)
        return form

    def __repr__(self):
        return f"HomForm({self.serialize()!r}, deg={self.degree}, p={self.p})"


def sum_of_products(pairs) -> HomForm:
    """The form sum(f * g for f, g in pairs), accumulated in one int dict.
    Every product must have the same degree and modulus."""
    pairs = list(pairs)
    degree = p = None
    for f, g in pairs:
        f._check(g)
        if degree is None:
            degree, p = f.degree + g.degree, f.p
        elif f.degree + g.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {f.degree + g.degree}")
        elif f.p != p:
            raise ValueError("modulus mismatch")
    return HomForm.from_residues(degree, p, product_terms([pairs])[0])


def product_terms(sums) -> list[dict[Exps, int]]:
    """Per list of pairs (f, g) in sums, the raw coefficients of sum(f * g); unchecked."""
    out = []
    for pairs in sums:
        acc: dict[Exps, int] = {}
        for f, g in pairs:
            g_terms = g.residues.items()
            for (a0, a1, a2), v in f.residues.items():
                for (b0, b1, b2), w in g_terms:
                    exps = (a0 + b0, a1 + b1, a2 + b2)
                    acc[exps] = acc.get(exps, 0) + v * w
        out.append(acc)
    return out


def divide(g: HomForm, f: HomForm) -> tuple[HomForm, HomForm]:
    """Single-divisor division g = q*f + r in graded-lex order.

    The remainder r contains no monomial divisible by the leading
    monomial of f, so r = 0 iff f divides g.
    """
    if f.is_zero():
        raise ZeroDivisionError("division by the zero form")
    if g.p != f.p:
        raise ValueError("modulus mismatch")
    p = g.p
    lm = max(f.residues)
    lc_inv = pow(f.residues[lm], p - 2, p)
    tail = [(e, v) for e, v in f.residues.items() if e != lm]
    work = dict(g.residues)
    q: dict[Exps, int] = {}
    # subtracting t*f at a multiple diff + lm of lm only changes smaller
    # monomials (lex is a monomial order), so one descending sweep divides
    for diff in monomials(g.degree - f.degree):
        c = work.pop((diff[0] + lm[0], diff[1] + lm[1], diff[2] + lm[2]), 0) % p
        if not c:
            continue
        t = c * lc_inv % p
        q[diff] = t
        for (e0, e1, e2), v in tail:
            key = (diff[0] + e0, diff[1] + e1, diff[2] + e2)
            work[key] = work.get(key, 0) - t * v
    return (
        HomForm.from_residues(max(g.degree - f.degree, 0), p, q),
        HomForm.from_residues(g.degree, p, work),
    )
