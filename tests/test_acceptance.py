"""Acceptance battery: one test per check of hesse_moore.verify.ALL_CHECKS,
each printing the check's pass/fail line."""

import random

import pytest

from hesse_moore import verify


@pytest.mark.parametrize(
    "check", verify.ALL_CHECKS, ids=[c.__name__.removeprefix("check_") for c in verify.ALL_CHECKS]
)
def test_check_passes(check, rng):
    result = check(rng)
    print(result.line())
    assert result.passed, result.line()


def test_prime_filter_tests_the_selected_prime():
    # F_19 has non-torsion points, so the base-point checks exercise them
    results = {r.name: r for r in verify.run_all(random.Random(19), p=19)}
    assert all(r.passed for r in results.values())
    assert not [r.line() for r in results.values() if "vacuous" in r.detail]
    for name in ("rank-2 Ulrich blocks", "extension dimensions"):
        assert results[name].detail.startswith("10 base points"), results[name].line()


# the checks whose every case comes from smooth_curves, besides the two
# over base points, whose vacuous text test_cli pins over F_7
CURVE_CHECKS = [
    verify.check_rank_lemma,
    verify.check_group_law,
    verify.check_equivalence_classification,
    verify.check_geometric_interpretations,
]


@pytest.mark.parametrize(
    "check", CURVE_CHECKS, ids=[c.__name__.removeprefix("check_") for c in CURVE_CHECKS]
)
def test_a_check_that_tests_nothing_fails(monkeypatch, check):
    monkeypatch.setattr(verify, "smooth_curves", lambda p, count=None: [])
    result = check(random.Random(0))
    assert not result.passed and result.detail.startswith("vacuous: "), result.line()


def test_prime_filter_reaches_exactly_the_checks_that_take_primes(monkeypatch):
    # a check receives primes=(p,) when, and only when, its signature
    # has that parameter
    calls = []

    def check_with_primes(rng, primes=(7, 13)):
        calls.append(("with", primes))
        return verify.CheckResult("with", True, "")

    def check_without_primes(rng):
        calls.append(("without", None))
        return verify.CheckResult("without", True, "")

    monkeypatch.setattr(verify, "ALL_CHECKS", [check_with_primes, check_without_primes])
    assert [r.name for r in verify.run_all(random.Random(0), p=19)] == ["with", "without"]
    verify.run_all(random.Random(0))
    assert calls == [("with", (19,)), ("without", None), ("with", (7, 13)), ("without", None)]


def test_rank2_blocks_fail_without_divergence_three(monkeypatch, rng):
    # the non-split witness is the divergence class of C, which a wrong
    # class must fail (the divergence of x0, x1, x2 is 3 at every a)
    monkeypatch.setattr(verify.ext_mod, "divergence_class", lambda a, C: 0)
    result = verify.check_rank2_blocks(rng)
    assert not result.passed
    assert result.detail.endswith(" base points certified, 10 failures"), result.line()


def test_rank2_blocks_build_one_factorization_per_base_point(patch_everywhere):
    # divergence_class reads the rank-1 factorization that rank2_ulrich
    # built and kept, rather than building its own from the triple
    calls = []
    patch_everywhere(
        "ulrich", "moore_factorization", lambda f: lambda a: calls.append(a) or f(a)
    )
    result = verify.check_rank2_blocks(random.Random(0))
    assert result.passed, result.line()
    assert result.detail == "10 base points certified, 0 failures"
    assert len(calls) == 10
