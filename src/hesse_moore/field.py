"""Exact arithmetic in a prime field F_p with p = 1 (mod 6).

Every scalar carries its modulus; mixing moduli is a hard error rather
than a coercion.  The congruence condition guarantees that F_p contains
six distinct sixth roots of unity, which the rest of the library needs
(cube roots for the Heisenberg action, sixth roots for the H_6
characters).
"""

from __future__ import annotations

from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_VALIDATED_MODULI: set[int] = set()


def validate_modulus(p: int) -> None:
    """Require p prime, p > 3 and p = 1 (mod 6)."""
    if p in _VALIDATED_MODULI:
        return
    if not isinstance(p, int) or p <= 3:
        raise ValueError(f"modulus must be a prime > 3, got {p!r}")
    if p % 6 != 1:
        raise ValueError(f"modulus {p} is not congruent to 1 mod 6")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    _VALIDATED_MODULI.add(p)


class FieldElement:
    """An element of F_p, p prime with p = 1 (mod 6)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        validate_modulus(p)
        self.value = value % p
        self.p = p

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.value + other.value, self.p)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.value - other.value, self.p)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.value * other.value, self.p)

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return FieldElement(pow(self.value, n, self.p), self.p)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return FieldElement(pow(self.value, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FieldElement({self.value}, p={self.p})"

    def is_zero(self) -> bool:
        return self.value == 0


def zero(p: int) -> FieldElement:
    return FieldElement(0, p)


def one(p: int) -> FieldElement:
    return FieldElement(1, p)


@lru_cache(maxsize=None)
def primitive_root_of_unity(p: int, n: int) -> FieldElement:
    """The smallest residue of multiplicative order exactly n in F_p.

    Requires n | p-1.  Deterministic, so all downstream constructions
    (character tables, Heisenberg matrices) are reproducible.  Memoized
    per (p, n); the shared result must not be mutated.
    """
    validate_modulus(p)
    if n <= 0 or (p - 1) % n != 0:
        raise ValueError(f"{n} does not divide p-1 = {p - 1}")
    if n == 1:
        return one(p)
    for z in range(2, p):
        if pow(z, n, p) != 1:
            continue
        if all(pow(z, k, p) != 1 for k in range(1, n)):
            return FieldElement(z, p)
    raise AssertionError(f"no element of order {n} in F_{p}")  # unreachable
