"""Exact arithmetic in a prime field F_p with p = 1 (mod 6).

The congruence condition guarantees that F_p contains six distinct
sixth roots of unity, which the rest of the library needs (cube roots
for the Heisenberg action, sixth roots for the H_6 characters);
``primitive_root_of_unity`` hands them out as int residues.

FieldElement is the public scalar: it carries its modulus, and mixing
moduli is a hard error rather than a coercion.  The rest of the library
computes on int residues, and ``residues`` (``triple_residues`` for a
triple a) is the one conversion of a sequence of FieldElements to them.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 (Sorenson-Webster 2015): the least odd composite that is a strong
# probable prime to all 13 bases; below it the test is exact.  The 12
# bases up to 37 are fooled by psi_12 = 318665857834031151167461.
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_BOUND; a larger n is a
    ValueError rather than a probable answer."""
    if n >= PRIME_BOUND:
        raise ValueError(f"primality of {n} is certified only below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return FieldElement(pow(self.value, -1, self.p), self.p)

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


def residues(elements) -> tuple[list[int], int | None]:
    """The int residues of a sequence of FieldElements and their common
    modulus (None when it is empty); mixed moduli are a ValueError that
    names both."""
    elements = list(elements)
    p = elements[0].p if elements else None
    for x in elements:
        if x.p != p:
            raise ValueError(f"modulus mismatch: {p} vs {x.p}")
    return [x.value for x in elements], p


def triple_residues(a) -> tuple[list[int], int]:
    """residues of a triple; any other length is a ValueError."""
    values, p = residues(a)
    if len(values) != 3:
        raise ValueError(f"expected a triple, got {len(values)} elements")
    return values, p


@lru_cache(maxsize=None)
def primitive_root_of_unity(p: int, n: int) -> int:
    """The smallest residue of multiplicative order exactly n in F_p.

    Requires n | p-1.  Deterministic, so all downstream constructions
    (character tables, Heisenberg matrices) are reproducible.  The first
    g = z^((p-1)/n), z = 2, 3, ..., of exact order n (g^(n/q) != 1 for
    each prime q | n) generates the roots of order n, the g^k with
    gcd(k, n) = 1, so this costs O(n log p) rather than O(p).
    """
    validate_modulus(p)
    if n <= 0 or (p - 1) % n != 0:
        raise ValueError(f"{n} does not divide p-1 = {p - 1}")
    primes = [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]
    for z in range(2, p):
        g = pow(z, (p - 1) // n, p)
        if all(pow(g, n // q, p) != 1 for q in primes):
            return min(pow(g, k, p) for k in range(1, n + 1) if gcd(k, n) == 1)
    raise AssertionError(f"no element of order {n} in F_{p}")  # unreachable
