import json

import pytest

from hesse_moore.cli import main


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


def test_verify_all_p7(capsys):
    # every smooth curve over F_7 has only its nine flexes, so the two
    # base-point checks test nothing there: they fail instead of passing
    code, payload = run_json(capsys, "verify", "all", "--p", "7")
    assert code == 1
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
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_missing_required_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ")


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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobenius"])
    assert exc.value.code == 2
