import math

import pytest

from hesse_moore import field, heisenberg, linalg
from hesse_moore.field import (
    FieldElement,
    PRIME_BOUND,
    is_prime,
    primitive_root_of_unity,
    residues,
    triple_residues,
    validate_modulus,
)
from hesse_moore.ext import moore_span_basis
from hesse_moore.moore import ProjectivePoint, moore, moore_adjugate, moore_det
from hesse_moore.ulrich import moore_factorization, rank2_ulrich


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    assert {n for n in range(2, 32) if is_prime(n)} == primes
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(-3, 100_000))


def test_is_prime_large():
    # psi_12 is a strong pseudoprime to every prime base up to 37 (base 41
    # exposes it), 3825123056546413051 to every prime base up to 31, and
    # psi_13 to all 13 bases, so it must be refused, not answered
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    validate_modulus(2**61 - 1)
    assert PRIME_BOUND == 3317044064679887385961981
    for n in (PRIME_BOUND, PRIME_BOUND + 6):
        with pytest.raises(ValueError, match="certified only below"):
            is_prime(n)
        with pytest.raises(ValueError, match="certified only below"):
            validate_modulus(n)


def test_miller_rabin_bases_are_the_first_13_primes():
    # PRIME_BOUND = psi_13 makes is_prime exact for these bases only, and
    # psi_1..psi_12 do not notice a changed base
    first_13 = tuple(n for n in range(2, 42) if all(n % d for d in range(2, n)))
    assert field._MR_BASES == first_13


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43])
def test_validate_modulus_accepts(p):
    validate_modulus(p)


@pytest.mark.parametrize("p", [2, 3, 5, 11, 17, 23, 9, 12, 25, 49, 0, -7])
def test_validate_modulus_rejects(p):
    with pytest.raises(ValueError):
        validate_modulus(p)


def test_arithmetic_matches_ints():
    p = 13
    for a in range(p):
        for b in range(p):
            x, y = FieldElement(a, p), FieldElement(b, p)
            assert (x + y).value == (a + b) % p
            assert (x - y).value == (a - b) % p
            assert (x * y).value == (a * b) % p
    assert (-FieldElement(5, p)).value == 8


def test_inverses():
    p = 13
    for a in range(1, p):
        x = FieldElement(a, p)
        assert (x * x.inv()) == FieldElement(1, p)
    with pytest.raises(ZeroDivisionError):
        FieldElement(0, p).inv()


def test_modulus_mismatch_is_error():
    with pytest.raises(ValueError):
        FieldElement(1, 13) + FieldElement(1, 7)
    with pytest.raises(TypeError):
        FieldElement(1, 13) + 1


def test_bool_hash_repr():
    assert not FieldElement(0, 13)
    assert FieldElement(5, 13)
    assert FieldElement(5, 13) == FieldElement(18, 13)
    assert hash(FieldElement(5, 13)) == hash(FieldElement(18, 13))
    assert FieldElement(5, 13) != FieldElement(5, 7)


def test_primitive_roots_frozen():
    # smallest residues of exact order n, as ints
    assert primitive_root_of_unity(13, 3) == 3
    assert primitive_root_of_unity(13, 6) == 4
    assert primitive_root_of_unity(7, 3) == 2
    assert primitive_root_of_unity(13, 1) == 1
    assert type(primitive_root_of_unity(13, 3)) is int


@pytest.mark.parametrize("p,n", [(13, 3), (13, 6), (13, 4), (7, 3), (7, 6), (31, 6)])
def test_primitive_root_has_exact_order(p, n):
    z = primitive_root_of_unity(p, n)
    assert pow(z, n, p) == 1
    for k in range(1, n):
        assert pow(z, k, p) != 1


def scan_root_of_unity(p, n):
    """The smallest residue of exact order n, by a linear scan."""
    if n == 1:
        return 1
    for z in range(2, p):
        if pow(z, n, p) == 1 and all(pow(z, k, p) != 1 for k in range(1, n)):
            return z
    raise AssertionError(f"no element of order {n} in F_{p}")


def test_primitive_root_matches_scan():
    pairs = 0
    for p in range(7, 2000, 6):
        if not is_prime(p):
            continue
        for n in range(1, p):
            if (p - 1) % n == 0:
                assert primitive_root_of_unity(p, n) == scan_root_of_unity(p, n), (p, n)
                pairs += 1
    assert pairs == 2309


def test_primitive_root_at_large_p():
    # 2^28 + 3 is prime and 1 mod 6; a scan up to the root takes seconds
    p = 268435459
    w = primitive_root_of_unity(p, 3)
    assert pow(w, 3, p) == 1 and w != 1
    assert w < p - 1 - w  # the other primitive cube root is w^2 = -1 - w
    z = primitive_root_of_unity(p, 6)
    assert pow(z, 6, p) == 1 and pow(z, 2, p) != 1 and pow(z, 3, p) != 1
    assert z < p + 1 - z  # the other primitive sixth root is z^5 = 1 - z


def test_primitive_root_requires_divisibility():
    with pytest.raises(ValueError):
        primitive_root_of_unity(13, 5)
    with pytest.raises(ValueError):
        primitive_root_of_unity(7, 4)


def test_residues_is_the_one_conversion():
    assert residues(FieldElement(v, 13) for v in (14, 2, -1)) == ([1, 2, 12], 13)
    assert residues([]) == ([], None)
    assert triple_residues([FieldElement(5, 7)] * 3) == ([5, 5, 5], 7)
    mixed = [FieldElement(1, 7), FieldElement(2, 13)]
    for convert in (residues, triple_residues, lambda m: linalg.rref([m[:1], m[1:]])):
        with pytest.raises(ValueError, match="^modulus mismatch: 7 vs 13$"):
            convert(mixed)
    with pytest.raises(ValueError, match="^expected a triple, got 4 elements$"):
        triple_residues([FieldElement(1, 7)] * 4)


MIXED = (FieldElement(1, 7), FieldElement(2, 13), FieldElement(3, 13))
PAIR = (FieldElement(2, 13), FieldElement(3, 13))
GOOD = tuple(FieldElement(v, 13) for v in (1, 2, 3))


@pytest.mark.parametrize(
    "fn",
    [
        pytest.param(heisenberg.orbit, id="orbit"),
        pytest.param(heisenberg.n_matrices, id="n_matrices"),
        pytest.param(heisenberg.trace_invariants, id="trace_invariants"),
        pytest.param(heisenberg.t_action, id="t_action"),
        pytest.param(lambda a: heisenberg.are_equivalent(a, GOOD), id="are_equivalent"),
        pytest.param(lambda a: heisenberg.are_equivalent(GOOD, a), id="are_equivalent_second"),
        pytest.param(moore, id="moore"),
        pytest.param(moore_adjugate, id="moore_adjugate"),
        pytest.param(moore_det, id="moore_det"),
        pytest.param(ProjectivePoint, id="ProjectivePoint"),
        pytest.param(moore_factorization, id="moore_factorization"),
        pytest.param(rank2_ulrich, id="rank2_ulrich"),
        pytest.param(moore_span_basis, id="moore_span_basis"),
        pytest.param(lambda a: moore_det(GOOD).evaluate(a), id="HomForm.evaluate"),
    ],
)
def test_triple_functions_reject_mixed_moduli_and_pairs(fn):
    """Every triple-taking function converts through triple_residues: a
    triple over two fields is a ValueError naming both moduli (and not a
    result mod the first coordinate's modulus), a 2-tuple a ValueError
    (and not an IndexError)."""
    with pytest.raises(ValueError, match="^modulus mismatch: 7 vs 13$"):
        fn(MIXED)
    with pytest.raises(ValueError, match="^expected a triple, got 2 elements$"):
        fn(PAIR)
