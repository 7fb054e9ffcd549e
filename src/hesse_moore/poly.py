"""Homogeneous trivariate polynomials over F_p.

Forms are stored densely as a map from exponent triples (e0, e1, e2),
with e0+e1+e2 equal to the degree, to nonzero field elements.  The
degrees in play never exceed six, so nothing fancier is warranted.
Sums, products and division accumulate plain int coefficients and
wrap each output coefficient in a FieldElement once.

Monomial order is graded lex with x0 > x1 > x2; since all forms are
homogeneous this is plain lex on the exponent triples.  Division by the
Hesse cubic (leading monomial x0^3) therefore has a canonical remainder.
"""

from __future__ import annotations

from .field import FieldElement, validate_modulus, zero as f_zero

Exps = tuple[int, int, int]


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


class HomForm:
    """A homogeneous form in x0, x1, x2 of a fixed degree over F_p."""

    __slots__ = ("degree", "p", "coeffs")

    def __init__(self, degree: int, p: int, coeffs: dict[Exps, FieldElement] | None = None):
        validate_modulus(p)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.p = p
        self.coeffs: dict[Exps, FieldElement] = {}
        if coeffs:
            for exps, c in coeffs.items():
                if sum(exps) != degree or len(exps) != 3 or min(exps) < 0:
                    raise ValueError(f"exponents {exps} do not have degree {degree}")
                if c.p != p:
                    raise ValueError("coefficient modulus mismatch")
                if c.value != 0:
                    self.coeffs[exps] = c

    @classmethod
    def zero(cls, degree: int, p: int) -> "HomForm":
        return cls(degree, p)

    @classmethod
    def monomial(cls, c: FieldElement, exps: Exps) -> "HomForm":
        return cls(sum(exps), c.p, {tuple(exps): c})

    @classmethod
    def variable(cls, i: int, p: int) -> "HomForm":
        exps = tuple(1 if k == i else 0 for k in range(3))
        return cls(1, p, {exps: FieldElement(1, p)})

    @classmethod
    def constant(cls, c: FieldElement) -> "HomForm":
        return cls(0, c.p, {(0, 0, 0): c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exps: Exps) -> FieldElement:
        return self.coeffs.get(tuple(exps), f_zero(self.p))

    def _check(self, other: "HomForm") -> None:
        if not isinstance(other, HomForm):
            raise TypeError("expected HomForm")
        if other.p != self.p:
            raise ValueError("modulus mismatch")

    def _combine(self, other: "HomForm", sign: int) -> "HomForm":
        self._check(other)
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        acc = {e: c.value for e, c in self.coeffs.items()}
        for e, c in other.coeffs.items():
            acc[e] = acc.get(e, 0) + sign * c.value
        return _from_residues(self.degree, self.p, acc)

    def __add__(self, other: "HomForm") -> "HomForm":
        return self._combine(other, 1)

    def __sub__(self, other: "HomForm") -> "HomForm":
        return self._combine(other, -1)

    def __neg__(self) -> "HomForm":
        return HomForm(self.degree, self.p, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "HomForm") -> "HomForm":
        return sum_of_products([(self, other)])

    def scale(self, c: FieldElement) -> "HomForm":
        if c.p != self.p:
            raise ValueError("modulus mismatch")
        return HomForm(self.degree, self.p, {e: c * v for e, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, HomForm):
            return NotImplemented
        # zero forms of different declared degrees are still distinct values
        return self.p == other.p and self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.p, frozenset(self.coeffs.items())))

    def partial(self, i: int) -> "HomForm":
        """Formal partial derivative with respect to x_i."""
        if i not in (0, 1, 2):
            raise ValueError("variable index must be 0, 1 or 2")
        out: dict[Exps, FieldElement] = {}
        for exps, c in self.coeffs.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            v = c * FieldElement(exps[i], self.p)
            if v.value:
                out[tuple(new)] = v
        return HomForm(max(self.degree - 1, 0), self.p, out)

    def evaluate(self, pt) -> FieldElement:
        """Substitute a triple of field elements for (x0, x1, x2)."""
        total = f_zero(self.p)
        for (e0, e1, e2), c in self.coeffs.items():
            total = total + c * pt[0] ** e0 * pt[1] ** e1 * pt[2] ** e2
        return total

    def leading(self) -> tuple[Exps, FieldElement]:
        exps = max(self.coeffs)
        return exps, self.coeffs[exps]

    def serialize(self) -> str:
        """Canonical text form: 'c*x0^e0*x1^e1*x2^e2 + ...' in graded-lex order."""
        if not self.coeffs:
            return "0"
        parts = []
        for exps in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exps]
            factors = [str(c.value)]
            for i, e in enumerate(exps):
                if e:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str, degree: int, p: int) -> "HomForm":
        """Inverse of serialize."""
        text = text.strip()
        coeffs: dict[Exps, FieldElement] = {}
        if text == "0":
            return cls(degree, p)
        for term in text.split("+"):
            factors = term.strip().split("*")
            c = FieldElement(int(factors[0]), p)
            exps = [0, 0, 0]
            for fac in factors[1:]:
                var, _, e = fac.partition("^")
                exps[int(var[1:])] += int(e) if e else 1
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, f_zero(p)) + c
        return cls(degree, p, {e: c for e, c in coeffs.items() if c.value})

    def __repr__(self):
        return f"HomForm({self.serialize()!r}, deg={self.degree}, p={self.p})"


def _from_residues(degree: int, p: int, acc: dict[Exps, int]) -> HomForm:
    """The form with int coefficients acc, each reduced and wrapped once;
    the exponents are the caller's and are trusted to have the degree."""
    form = HomForm.__new__(HomForm)
    form.degree = degree
    form.p = p
    form.coeffs = {}
    for exps, v in acc.items():
        v %= p
        if v:
            form.coeffs[exps] = FieldElement(v, p)
    return form


def sum_of_products(pairs) -> HomForm:
    """The form sum(f * g for f, g in pairs), accumulated in one int dict.
    Every product must have the same degree and modulus."""
    acc: dict[Exps, int] = {}
    degree = p = None
    for f, g in pairs:
        f._check(g)
        if degree is None:
            degree, p = f.degree + g.degree, f.p
        elif f.degree + g.degree != degree:
            raise ValueError(f"degree mismatch: {degree} vs {f.degree + g.degree}")
        elif f.p != p:
            raise ValueError("modulus mismatch")
        g_terms = [(e, c.value) for e, c in g.coeffs.items()]
        for (a0, a1, a2), c in f.coeffs.items():
            v = c.value
            for (b0, b1, b2), w in g_terms:
                exps = (a0 + b0, a1 + b1, a2 + b2)
                acc[exps] = acc.get(exps, 0) + v * w
    return _from_residues(degree, p, acc)


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
    lm, lc = f.leading()
    lc_inv = pow(lc.value, p - 2, p)
    tail = [(e, c.value) for e, c in f.coeffs.items() if e != lm]
    work = {e: c.value for e, c in g.coeffs.items()}
    q: dict[Exps, int] = {}
    r: dict[Exps, int] = {}
    # subtracting t*f from the current leading term only changes smaller
    # monomials, so one sweep in descending order performs the division
    for exps in monomials(g.degree):
        c = work.get(exps, 0) % p
        if not c:
            continue
        diff = (exps[0] - lm[0], exps[1] - lm[1], exps[2] - lm[2])
        if min(diff) < 0:
            r[exps] = c
            continue
        t = c * lc_inv % p
        q[diff] = t
        for (e0, e1, e2), v in tail:
            key = (diff[0] + e0, diff[1] + e1, diff[2] + e2)
            work[key] = work.get(key, 0) - t * v
    return _from_residues(max(g.degree - f.degree, 0), p, q), _from_residues(g.degree, p, r)


def divides(f: HomForm, g: HomForm) -> bool:
    return divide(g, f)[1].is_zero()


class HesseCubicForm:
    """The cubic x0^3 + x1^3 + x2^3 - lam*x0*x1*x2, smooth (lam^3 != 27)."""

    __slots__ = ("lam", "p", "form")

    def __init__(self, lam: FieldElement):
        self.lam = lam
        self.p = lam.p
        if (lam ** 3).value == 27 % lam.p:
            raise ValueError(f"lambda = {lam.value} gives a singular cubic (lambda^3 = 27)")
        one = FieldElement(1, self.p)
        self.form = HomForm(
            3,
            self.p,
            {
                (3, 0, 0): one,
                (0, 3, 0): one,
                (0, 0, 3): one,
                (1, 1, 1): -lam,
            },
        )

    def __eq__(self, other):
        if not isinstance(other, HesseCubicForm):
            return NotImplemented
        return self.lam == other.lam

    def __hash__(self):
        return hash(("hesse", self.lam))

    def __repr__(self):
        return f"HesseCubicForm(lambda={self.lam.value}, p={self.p})"


def divide_by_cubic(g: HomForm, f: HesseCubicForm) -> tuple[HomForm, HomForm]:
    """Division of g by the Hesse cubic; remainder is canonical (see divide)."""
    return divide(g, f.form)
