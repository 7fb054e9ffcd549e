import json
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from hesse_moore.cli import OPTIONS, REQUIRED, main
from hesse_moore.hesse import HesseCurve
from hesse_moore.moore import FormMatrix
from hesse_moore.poly import monomials


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_hesse_add(capsys):
    code, payload = run_json(
        capsys, "hesse", "add", "--p", "13", "--lambda", "6",
        "--x", "1,2,3", "--a", "0,1,12",
    )
    assert code == 0
    assert payload == {"point": [1, 2, 3], "status": "ok"}


def test_ext_dims_at_a_61_bit_prime(capsys):
    # the dims at 2^61 - 1 are the ext_dims_61bit golden; past the
    # Miller-Rabin bound psi_13 a modulus is refused, and psi_12, a strong
    # pseudoprime to the 12 bases up to 37, is caught as composite
    for modulus, message in (
        ("3317044064679887385961981", "certified only below"),
        ("318665857834031151167461", "is not prime"),
    ):
        code, payload = run_json(capsys, "ext", "dims", "--p", modulus, "--a", "1,2,3", "--m=0")
        assert code == 1 and payload["status"] == "error"
        assert message in payload["error"]


def test_output_deterministic(capsys):
    args = ("hesse", "points", "--p", "7", "--lambda", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_hesse_points_count(capsys):
    code, payload = run_json(capsys, "hesse", "points", "--p", "7", "--lambda", "1")
    assert code == 0
    assert payload["count"] == 9
    assert len(payload["points"]) == 9


def test_lambda_sign_plus(capsys):
    # plus convention: lambda 7 maps to internal -7 = 6 mod 13
    _, minus = run_json(capsys, "hesse", "points", "--p", "13", "--lambda", "6")
    _, plus = run_json(
        capsys, "hesse", "points", "--p", "13", "--lambda", "7", "--lambda-sign", "plus"
    )
    assert plus["points"] == minus["points"]


def test_hesse_mul_and_torsion(capsys):
    code, payload = run_json(
        capsys, "hesse", "mul", "--p", "13", "--lambda", "6", "--a", "1,2,3", "--n", "18"
    )
    assert code == 0
    assert payload["point"] == [0, 1, 12]
    code, payload = run_json(capsys, "hesse", "torsion3", "--p", "13", "--lambda", "6")
    assert payload["count"] == 9
    code, payload = run_json(capsys, "hesse", "torsion6", "--p", "31", "--lambda", "1")
    assert payload["count"] == 36
    assert payload["primitive_count"] == 24


def test_moore_commands(capsys):
    code, payload = run_json(capsys, "moore", "build", "--p", "13", "--a", "1,2,3")
    assert code == 0
    assert payload["matrix"][0] == ["1*x0^1", "2*x2^1", "3*x1^1"]
    code, payload = run_json(capsys, "moore", "det", "--p", "13", "--a", "1,2,3")
    assert payload["det"].startswith("6*x0^3")
    code, payload = run_json(
        capsys, "moore", "kernel", "--p", "13", "--a", "1,2,3", "--x", "1,2,3"
    )
    assert payload["point"] == [0, 1, 12]


def test_heis_commands(capsys):
    code, payload = run_json(
        capsys, "heis", "equiv", "--p", "13", "--a", "1,2,3", "--a2", "3,1,2"
    )
    assert code == 0
    assert payload["equivalent"] is True
    assert payload["invariants"] == payload["invariants2"] == [4, 3, 1]
    assert payload["orbit_size"] == 9
    code, payload = run_json(capsys, "heis", "characters", "--p", "13", "--n", "3")
    assert payload["zeta"] == 3
    assert payload["table"]["1"]["0,0,0"] == 3
    code, payload = run_json(
        capsys, "heis", "restrict", "--p", "13", "--n", "6", "--d", "3", "--j", "1"
    )
    assert payload["holds"] is True
    code, payload = run_json(capsys, "heis", "tensor", "--p", "13")
    assert payload["holds"] is True


def test_ulrich_commands(capsys):
    code, payload = run_json(capsys, "ulrich", "rank1", "--p", "13", "--a", "1,2,3")
    assert code == 0
    assert payload["certified"] is True
    code, payload = run_json(capsys, "ulrich", "rank2", "--p", "13", "--a", "1,2,3")
    assert payload["certified"] is True
    assert payload["divergence"] == 3
    assert payload["extension_triple"] == [6, 0, 8]
    # the C block of the rank-2 factorization has a partner: feed it back in
    C = [row[3:] for row in payload["A"][:3]]
    code, partner = run_json(
        capsys, "ulrich", "partner", "--p", "13", "--a", "1,2,3", "--C", json.dumps(C)
    )
    assert code == 0
    assert "D" in partner
    code, payload = run_json(
        capsys, "ulrich", "trace", "--p", "13", "--a", "1,2,3", "--C", json.dumps(C)
    )
    assert payload["trace_criterion"] is True
    assert payload["bcb_divisible"] is True


def test_ext_commands(capsys):
    # note the --m= form: values starting with '-' need it under argparse
    code, payload = run_json(
        capsys, "ext", "dims", "--p", "13", "--a", "1,2,3", "--m=-2,-1,0,1"
    )
    assert code == 0
    assert payload["dims"] == {"-2": 0, "-1": 3, "0": 1, "1": 0}
    code, payload = run_json(capsys, "ext", "basis", "--p", "13", "--a", "1,2,3", "--m=-1")
    assert payload["quotient_dimension"] == 3
    assert len(payload["solutions"]) == 3
    assert payload["homotopies"] == []


def test_ext_dims_builds_one_factorization(capsys, patch_everywhere):
    calls = []
    patch_everywhere(
        "ulrich", "moore_factorization", lambda f: lambda a: calls.append(a) or f(a)
    )
    code, payload = run_json(capsys, "ext", "dims", "--p", "13", "--a", "1,2,3", "--m=-2,-1,0,1,2")
    assert code == 0
    assert payload["dims"] == {"-2": 0, "-1": 3, "0": 1, "1": 0, "2": 0}
    assert len(calls) == 1


def test_verify_all_p7(capsys):
    # every smooth curve over F_7 has only its nine flexes, so the two
    # base-point checks test nothing there: they fail instead of passing
    code, payload = run_json(capsys, "verify", "all", "--p", "7")
    assert code == 1
    assert payload["status"] == "ok"  # failed checks, but none raised
    assert (payload["failed"], payload["passed"]) == (2, 10)
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["rank-2 Ulrich blocks", "extension dimensions"]
    assert all(c["detail"].startswith("vacuous: ") for c in failed)


def test_domain_error_exit_code(capsys):
    code, payload = run_json(
        capsys, "hesse", "points", "--p", "13", "--lambda", "3"
    )
    assert code == 1
    assert payload["status"] == "error"
    code, payload = run_json(capsys, "hesse", "points", "--p", "12", "--lambda", "1")
    assert code == 1
    # d < 1 is rejected by name (d = -3 used to print "holds": true)
    for d in ("0", "-3"):
        code, payload = run_json(
            capsys, "heis", "restrict", "--p", "13", "--n", "6", "--d", d, "--j", "1"
        )
        assert code == 1
        assert payload["error"] == f"d must be a positive divisor of n, got d = {d}"
    # n | p-1 (the root of unity of order n) is checked before d
    code, out, _ = run(capsys, "heis", "restrict", "--p", "13", "--n", "5", "--d", "0", "--j", "1")
    assert code == 1
    assert out == '{"error":"5 does not divide p-1 = 12","status":"error"}\n'
    code, payload = run_json(
        capsys, "heis", "restrict", "--p", "13", "--n", "4", "--d", "2", "--j", "1"
    )
    assert code == 1
    assert payload["error"] == "restriction needs gcd(d, n/d) = 1"


def test_usage_error_exit_code(capsys):
    code, _, err = run(
        capsys, "hesse", "mul", "--p", "13", "--lambda", "6", "--a", "1,2,3"
    )
    assert code == 2
    assert "usage error" in err
    # malformed values are usage errors too, not domain errors
    bad = [
        ("hesse", "add", "--p", "13", "--lambda", "6", "--x", "1,2,3", "--a", "0,x,12"),
        ("ext", "class", "--p", "13", "--a", "1,2,3", "--C", "[[1,2,3],[1,2,3],[1,2,3]]"),
        ("ext", "dims", "--p", "13", "--a", "1,2,3", "--m=1,y"),
        ("ext", "basis", "--p", "13", "--a", "1,2,3", "--m=0,1"),
        ("ulrich", "trace", "--p", "13", "--a", "1,2,3", "--C",
         json.dumps([["1*x0^2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]])),
        # only x0, x1, x2 are variables
        ("ulrich", "trace", "--p", "13", "--a", "1,2,3", "--deg", "1", "--C",
         json.dumps([["3*y0", "0", "0"], ["0", "1*z1", "0"], ["0", "0", "1*w2"]])),
        # a written '^' needs an exponent
        ("ulrich", "trace", "--p", "13", "--a", "1,2,3", "--deg", "1", "--C",
         json.dumps([["1*x0^", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]])),
        # a malformed option wins over a zero coordinate or a singular lambda
        ("ulrich", "trace", "--p", "13", "--a", "1,0,3", "--C", "notjson"),
        ("hesse", "add", "--p", "13", "--lambda", "1", "--x", "1,2,3", "--a", "0,x,12"),
    ]
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("moore", "kernel", "--p", "13", "--a", "1,2,3"),
        ("heis", "equiv", "--p", "13", "--a", "1,2,3"),
        ("heis", "orbit", "--p", "13"),
        ("ulrich", "partner", "--p", "13", "--a", "1,2,3"),
        ("ext", "class", "--p", "13", "--a", "1,2,3"),
        ("hesse", "add", "--p", "13", "--lambda", "6", "--a", "1,2,3"),
        ("hesse", "points", "--p", "13"),
        # a missing option wins over a zero coordinate or a singular lambda
        pytest.param(("ulrich", "partner", "--p", "13", "--a", "1,0,3"), id="ulrich partner a0"),
        pytest.param(("ext", "class", "--p", "13", "--a", "1,0,3"), id="ext class a0"),
        pytest.param(("hesse", "add", "--p", "13", "--lambda", "1", "--a", "1,2,3"),
                     id="hesse add singular"),
        pytest.param(("hesse", "mul", "--p", "13", "--lambda", "1", "--a", "1,2,3"),
                     id="hesse mul singular"),
        # exit 2 since cli.OPTIONS states what each action reads
        pytest.param(("ext", "basis", "--p", "13", "--a", "1,2,3"), id="ext basis no m"),
        pytest.param(("hesse", "points", "--p", "13", "--lambda", "6", "--a", "0,x,1"),
                     id="hesse points malformed a"),
        pytest.param(("heis", "tensor", "--p", "13", "--a", "1,2,3"), id="heis tensor unread a"),
        pytest.param(("hesse", "--p", "13", "points", "--lambda", "6"), id="hesse p before points"),
        pytest.param(("moore", "kernel", "--p", "12", "--a", "1,2,3"), id="moore kernel bad p no x"),
        pytest.param(("hesse", "points", "--p", "13", "--lambda-s", "plus", "--lambda", "7"),
                     id="hesse points abbreviated"),
        pytest.param(("ext", "class", "--p", "13", "--a", "1,2,3", "--C", "[" * 100_000),
                     id="ext class C nested too deep"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_missing_required_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


def test_a_missing_option_is_named(capsys):
    code, out, err = run(capsys, "ext", "basis", "--p", "13", "--a", "1,2,3")
    assert (code, out) == (2, "")
    assert err == "usage error: the following arguments are required: --m\n"


def test_type_error_in_handler_propagates(monkeypatch):
    # a TypeError is a programming bug, not a usage error
    from hesse_moore import heisenberg

    def broken(a):
        raise TypeError("bug")

    monkeypatch.setattr(heisenberg, "orbit", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["heis", "orbit", "--p", "13", "--a", "1,2,3"])


def test_internal_assertion_exits_3(capsys, monkeypatch):
    from hesse_moore import heisenberg

    def broken(a):
        raise AssertionError("trace invariants disagree with their closed forms")

    monkeypatch.setattr(heisenberg, "trace_invariants", broken)
    code, out, _ = run(capsys, "heis", "invariants", "--p", "13", "--a", "1,2,3")
    assert code == 3
    assert json.loads(out) == {
        "error": "trace invariants disagree with their closed forms",
        "status": "internal",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "13", "--a", "1,2,3", "--a2", "3,1,2"),
        ("--p", "31", "--a", "1,2,3", "--a2", "1,1,26"),
    ],
)
def test_heis_equiv_computes_each_triples_invariants_once(capsys, monkeypatch, argv):
    from hesse_moore import heisenberg

    calls = []
    counted = heisenberg.trace_invariants

    def counting(a):
        calls.append(a)
        return counted(a)

    monkeypatch.setattr(heisenberg, "trace_invariants", counting)
    code, _, _ = run(capsys, "heis", "equiv", *argv)
    assert code == 0
    assert len(calls) <= 2


def test_unknown_subcommand_exits_2(capsys):
    # a usage error at any level returns 2, as an option's does: no group,
    # an unknown group, no action, an unknown action, a stray trailing token
    for argv, error in (
        ([], "the following arguments are required: group"),
        (["frobenius"], "argument group: invalid choice: "),
        (["hesse"], "the following arguments are required: action"),
        (["hesse", "frobenius"], "argument action: invalid choice: "),
        (["hesse", "points", "--p", "13", "--lambda", "6", "extra"],
         "unrecognized arguments: extra"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: " + error)


def _help(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("group, action", [
    (group, action) for group, (_, actions) in OPTIONS.items() for action in actions
], ids=" ".join)
def test_each_action_help_lists_the_options_it_reads(capsys, group, action):
    usage = _help(capsys, group, action, "-h").split("\n\n")[0]
    # each option once, in brackets exactly when it has a default
    listed = [(flag, bool(bracket)) for bracket, flag in re.findall(r"(\[?)(--[\w-]+)", usage)]
    _, options = OPTIONS[group][1][action]
    assert listed == [(flag, default is not REQUIRED) for flag, (_, default) in options.items()]


def test_help_exits_0_above_the_actions(capsys):
    assert _help(capsys, "-h").startswith("usage: hesse-moore [-h] {hesse,moore,heis,")
    assert _help(capsys, "ext", "-h").startswith("usage: hesse-moore ext [-h] {dims,basis,class}")


def test_heis_characters_refuses_n_above_18_before_any_character(capsys, monkeypatch):
    # the table holds n^4 values; at 2^61 - 1, n = 1321 divides p - 1
    from hesse_moore import heisenberg

    built = []
    character = heisenberg.schrodinger_character
    monkeypatch.setattr(heisenberg, "schrodinger_character",
                        lambda *args: built.append(args) or character(*args))
    monkeypatch.setattr(heisenberg, "hn_elements", lambda n: [])  # keeps n = 18 cheap
    for p, n in ((37, 19), (37, 36), (2**61 - 1, 1321)):
        code, out, _ = run(capsys, "heis", "characters", "--p", str(p), "--n", str(n))
        assert code == 1
        assert out == ('{"error":"the character table has n^4 entries: n must be at most 18, '
                       f'got n = {n}","status":"error"}}\n')
    assert built == []
    code, payload = run_json(capsys, "heis", "characters", "--p", "37", "--n", "18")
    assert (code, len(payload["table"]), len(built)) == (0, 18, 18)


@pytest.mark.parametrize("action", ["points", "torsion6"])
def test_point_scans_refuse_p_above_100000_before_any_point(capsys, monkeypatch, action):
    # enumerate_points builds a table of p square roots, so 2^61 - 1 would
    # exhaust memory; the bound is checked after the modulus
    def enumerate_points(curve):
        raise AssertionError(f"enumerated the points of {curve}")

    monkeypatch.setattr(HesseCurve, "enumerate_points", enumerate_points)
    for p, curve in ((2**61 - 1, ("--lambda", "6")), (2**61 - 1, ("--a", "1,2,3")),
                     (100_003, ("--lambda", "6"))):
        code, out, _ = run(capsys, "hesse", action, "--p", str(p), *curve)
        assert code == 1
        assert out == ('{"error":"a point scan takes O(p) time and memory: p must be at most '
                       f'100000, got p = {p}","status":"error"}}\n')
    code, payload = run_json(capsys, "hesse", action, "--p", str(7 * (2**61 - 1)), "--lambda", "6")
    assert (code, payload["error"]) == (1, f"modulus {7 * (2**61 - 1)} is not prime")
    code, payload = run_json(capsys, "hesse", action, "--p", "99991", "--lambda", "6")
    assert (code, payload["status"]) == (3, "internal")
    assert payload["error"] == "enumerated the points of HesseCurve(lambda=6, p=99991)"


def _transposed(original):
    return lambda a: FormMatrix([list(col) for col in zip(*original(a).entries)])


def _zero_remainder(original):
    def divide_row(row, degree, f):
        q, r = original(row, degree, f)
        return q, [0] * len(r)

    return divide_row


def _last_term_dropped(original):
    """original, with the last nonzero coordinate of each product cell zeroed."""
    def product_terms(products):
        flat = original(products)
        X, Y = products[0]
        size = len(monomials(X[0][0].degree + Y[0][0].degree))
        for cell in range(0, len(flat), size):
            last = [i for i in range(cell, cell + size) if flat[i]]
            if last:
                flat[last[-1]] = 0
        return flat

    return product_terms


@pytest.mark.parametrize(
    "module, name, make_fault, raised",
    [
        ("moore", "moore_adjugate", _transposed,
         "raised AssertionError: A*B = B*A = f*I fails; not a matrix factorization"),
        ("poly", "divide_row", _zero_remainder,
         "raised AssertionError: division certificate failed"),
        ("poly", "product_terms", _last_term_dropped,
         "raised AssertionError: A*B = B*A = f*I fails; not a matrix factorization"),
    ],
)
def test_verify_all_reports_a_raising_check_and_exits_3(
    capsys, patch_everywhere, module, name, make_fault, raised
):
    # a fault that makes a check raise is that check's failing result,
    # named after its function, and the other checks still run
    patched = patch_everywhere(module, name, make_fault)
    assert {f"hesse_moore.{module}", "hesse_moore.ulrich"} <= set(patched)
    code, payload = run_json(capsys, "verify", "all")
    assert code == 3
    assert payload["status"] == "internal"
    assert len(payload["checks"]) == 12
    assert payload["failed"] + payload["passed"] == 12
    crashed = [c for c in payload["checks"] if c["detail"].startswith("raised ")]
    assert {c["name"] for c in crashed} >= {"check_partner_lemma", "check_trace_lemma"}
    assert all(c["detail"] == raised and not c["passed"] for c in crashed)


def _negated_partner(original):
    return lambda fac, C: -original(fac, C)


def _off_curve_at(call, original):
    """original, with the first coordinate of its call-th result moved by 1."""
    results = []

    def fault(*args):
        out = original(*args)
        results.append(out)
        return (out[0] + 1, *out[1:]) if len(results) == call else out

    return fault


_NOT_A_FACTORIZATION = re.escape("A*B = B*A = f*I fails; not a matrix factorization")
_OFF_CURVE = r"\[\d+:\d+:\d+\] is not on HesseCurve\(lambda=6, p=13\)"
_MUL_13 = "hesse mul --p 13 --lambda 6"


@pytest.mark.parametrize("module, name, make_fault, argv, exit_code, error", [
    # the library's own certificate or ladder check fails: internal
    ("moore", "moore_adjugate", _transposed, "ulrich rank1 --p 13 --a 1,2,3", 3,
     _NOT_A_FACTORIZATION),
    ("moore", "moore_adjugate", _transposed, "ulrich rank2 --p 13 --a 1,2,3", 3,
     _NOT_A_FACTORIZATION),
    ("moore", "moore_adjugate", _transposed, "ext dims --p 13 --a 1,2,3", 3,
     _NOT_A_FACTORIZATION),
    # the 6x6 block certificate of rank2_ulrich
    ("ulrich", "partner_D", _negated_partner, "ulrich rank2 --p 13 --a 1,2,3", 3,
     _NOT_A_FACTORIZATION),
    # the ladder's fifth doubled summand, then its first sum
    ("hesse", "doubling_representative", partial(_off_curve_at, 5),
     f"{_MUL_13} --a 1,2,3 --n 987654321", 3, _OFF_CURVE),
    ("hesse", "kernel_column_mod", partial(_off_curve_at, 1), f"{_MUL_13} --a 1,2,3 --n 5", 3,
     _OFF_CURVE),
    # the caller's point is off the curve: a domain error
    (None, None, None, f"{_MUL_13} --a 1,1,2 --n 5", 1,
     r"\[1:1:2\] is not on HesseCurve\(lambda=6, p=13\)"),
], ids=["rank1", "rank2", "ext-dims", "rank2-blocks", "mul-summand", "mul-sum", "mul-caller-point"])
def test_a_failed_check_exits_by_whose_input_failed(
    capsys, patch_everywhere, module, name, make_fault, argv, exit_code, error
):
    if module:
        patch_everywhere(module, name, make_fault)
    code, payload = run_json(capsys, *argv.split())
    assert code == exit_code
    assert payload["status"] == {1: "error", 3: "internal"}[exit_code]
    assert re.fullmatch(error, payload["error"]), payload


@pytest.mark.parametrize("p, message", [
    ("0", "modulus must be a prime > 3, got 0"),
    ("11", "modulus 11 is not congruent to 1 mod 6"),
    ("25", "modulus 25 is not prime"),
])
def test_verify_all_rejects_a_bad_prime_before_the_battery(capsys, p, message):
    code, payload = run_json(capsys, "verify", "all", "--p", p)
    assert code == 1
    assert payload == {"error": message, "status": "error"}


@pytest.mark.parametrize("p, message", [
    ("0", "modulus must be a prime > 3, got 0"),
    ("1", "modulus must be a prime > 3, got 1"),
    ("2", "modulus must be a prime > 3, got 2"),
    ("3", "modulus must be a prime > 3, got 3"),
    ("12", "modulus 12 is not congruent to 1 mod 6"),
    ("-7", "modulus must be a prime > 3, got -7"),
])
def test_lambda_is_reduced_only_at_a_checked_modulus(capsys, p, message):
    # --lambda mod p came first, so p = 0 printed "integer modulo by zero";
    # now --lambda gives the modulus error that --a and other actions give
    for argv in (
        ("hesse", "points", f"--p={p}", "--lambda", "1"),
        ("hesse", "points", f"--p={p}", "--lambda", "1", "--lambda-sign", "plus"),
        ("hesse", "points", f"--p={p}", "--a", "1,2,3"),
        ("moore", "build", f"--p={p}", "--a", "1,2,3"),
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {"error": message, "status": "error"}


@pytest.mark.parametrize("argv, exit_code", [
    ("hesse points --p 13 --lambda 6", 0),
    ("hesse points --p 13 --lambda 3", 1),  # the domain-error payload
    ("verify all --p 13", 0),
    (f"ext basis --p {2**61 - 1} --a 1,2,3 --m=2 | head -c 100", 0),
    # 80,971 bytes, more than a 64 KiB pipe holds: the write itself breaks
    ("hesse points --p 6007 --lambda 6 | head -c 100", 0),
])
def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(argv, exit_code):
    # the reader takes the `head -c` bytes and closes, as head does; without
    # `| head -c` it is gone before the command writes, as `head -c 0` is
    argv, _, take = argv.partition(" | head -c ")
    take = int(take or 0)
    read_end, write_end = os.pipe()
    if not take:
        os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "hesse_moore.cli", *argv.split()],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    if take:
        with open(read_end, "rb") as reader:
            assert len(reader.read(take)) == take
    _, stderr = proc.communicate(timeout=60)
    assert b"Traceback" not in stderr
    assert proc.returncode == exit_code
