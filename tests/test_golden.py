"""Byte-for-byte golden outputs of fixed CLI invocations.

Each tests/golden/<name>.json records the argv, exit code and stdout of
one ``cli.main`` call run in-process with HESSE_MOORE_SEED=0.  Stderr
(timings, argparse usage text) is not recorded.  After an intended
change of output, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from hesse_moore.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = "0"

# a Moore matrix that has a partner: the C block of `ulrich rank2 --a 1,2,3`
_C_PARTNER = json.dumps(
    [["6*x0^1", "0", "8*x1^1"], ["0", "8*x0^1", "6*x2^1"], ["8*x2^1", "6*x1^1", "0"]]
)
# diag(x0, x1, x2): fails the trace criterion, so it has no partner
_C_DIAG = json.dumps([["1*x0^1", "0", "0"], ["0", "1*x1^1", "0"], ["0", "0", "1*x2^1"]])
# a cell without its coefficient: a usage error, not a domain error
_C_NO_COEFF = json.dumps([["x0", "0", "0"], ["0", "1*x1^1", "0"], ["0", "0", "1*x2^1"]])
_C_DEG0 = json.dumps([["1", "2", "0"], ["0", "5", "7"], ["3", "0", "1"]])
_C_DEG2 = json.dumps(
    [
        ["1*x0^2 + 3*x1^1*x2^1", "0", "2*x2^2"],
        ["0", "5*x0^1*x1^1", "0"],
        ["7*x1^2", "0", "1*x0^1*x2^1"],
    ]
)

CASES = {
    "hesse_points_p7": ["hesse", "points", "--p", "7", "--lambda", "1"],
    "hesse_points_p13": ["hesse", "points", "--p", "13", "--lambda", "6"],
    "hesse_points_plus": ["hesse", "points", "--p", "13", "--lambda", "7", "--lambda-sign", "plus"],
    "hesse_points_from_a": ["hesse", "points", "--p", "19", "--a", "1,2,3"],
    "hesse_add": ["hesse", "add", "--p", "13", "--lambda", "6", "--x", "1,2,3", "--a", "0,1,12"],
    "hesse_sub": ["hesse", "sub", "--p", "13", "--lambda", "6", "--x", "1,2,3", "--a", "1,2,3"],
    "hesse_double": ["hesse", "double", "--p", "13", "--lambda", "6", "--a", "1,2,3"],
    "hesse_triple": ["hesse", "triple", "--p", "13", "--lambda", "6", "--a", "1,2,3"],
    "hesse_mul": ["hesse", "mul", "--p", "13", "--lambda", "6", "--a", "1,2,3", "--n", "18"],
    "hesse_mul_negative": ["hesse", "mul", "--p", "19", "--a", "1,2,3", "--n=-1000003"],
    "hesse_torsion3": ["hesse", "torsion3", "--p", "13", "--lambda", "6"],
    "hesse_torsion6": ["hesse", "torsion6", "--p", "31", "--lambda", "1"],
    "hesse_points_p103": ["hesse", "points", "--p", "103", "--lambda", "5"],
    "hesse_torsion6_p61": ["hesse", "torsion6", "--p", "61", "--lambda", "1"],
    "hesse_mul_60bit": ["hesse", "mul", "--p", "103", "--a", "1,2,3", "--n", "987654321987654321"],
    "moore_build": ["moore", "build", "--p", "13", "--a", "1,2,3"],
    "moore_det": ["moore", "det", "--p", "13", "--a", "1,2,3"],
    "moore_adjugate": ["moore", "adjugate", "--p", "13", "--a", "1,2,3"],
    "moore_kernel": ["moore", "kernel", "--p", "13", "--a", "1,2,3", "--x", "1,2,3"],
    "moore_kernel_rank3": ["moore", "kernel", "--p", "13", "--a", "1,2,3", "--x", "1,1,2"],
    "heis_orbit": ["heis", "orbit", "--p", "13", "--a", "1,2,3"],
    "heis_invariants": ["heis", "invariants", "--p", "19", "--a", "1,2,3"],
    "heis_equiv": ["heis", "equiv", "--p", "13", "--a", "1,2,3", "--a2", "3,1,2"],
    "heis_characters_n6": ["heis", "characters", "--p", "13", "--n", "6"],
    "heis_restrict": ["heis", "restrict", "--p", "13", "--n", "6", "--d", "3", "--j", "1"],
    "heis_tensor": ["heis", "tensor", "--p", "13"],
    "heis_equiv_false": ["heis", "equiv", "--p", "31", "--a", "1,2,3", "--a2", "1,1,26"],
    "heis_invariants_zero": ["heis", "invariants", "--p", "13", "--a", "0,1,12"],
    "heis_characters_n3": ["heis", "characters", "--p", "7", "--n", "3"],
    "heis_tensor_p7": ["heis", "tensor", "--p", "7"],
    "heis_restrict_d2": ["heis", "restrict", "--p", "13", "--n", "6", "--d", "2", "--j", "1"],
    "heis_orbit_p19": ["heis", "orbit", "--p", "19", "--a", "1,2,3"],
    "ulrich_rank1": ["ulrich", "rank1", "--p", "13", "--a", "1,2,3"],
    "ulrich_rank2": ["ulrich", "rank2", "--p", "13", "--a", "1,2,3"],
    "ulrich_partner": ["ulrich", "partner", "--p", "13", "--a", "1,2,3", "--C", _C_PARTNER],
    "ulrich_partner_none": ["ulrich", "partner", "--p", "13", "--a", "1,2,3", "--C", _C_DIAG],
    "ulrich_trace_deg0": [
        "ulrich", "trace", "--p", "13", "--a", "1,2,3", "--deg", "0", "--C", _C_DEG0,
    ],
    "ulrich_trace_deg2": [
        "ulrich", "trace", "--p", "19", "--a", "1,2,3", "--deg", "2", "--C", _C_DEG2,
    ],
    "ext_dims": ["ext", "dims", "--p", "13", "--a", "1,2,3", "--m=-2,-1,0,1"],
    "ext_basis_m-1": ["ext", "basis", "--p", "13", "--a", "1,2,3", "--m=-1"],
    "ext_basis_m0": ["ext", "basis", "--p", "13", "--a", "1,2,3", "--m=0"],
    "ext_basis_m1": ["ext", "basis", "--p", "19", "--a", "1,2,3", "--m=1"],
    "ext_class": ["ext", "class", "--p", "13", "--a", "1,2,3", "--C", _C_PARTNER],
    "error_singular_lambda": ["hesse", "points", "--p", "13", "--lambda", "3"],
    "error_bad_modulus": ["hesse", "points", "--p", "12", "--lambda", "1"],
    "usage_missing_n": ["hesse", "mul", "--p", "13", "--lambda", "6", "--a", "1,2,3"],
    "usage_unknown_group": ["frobenius"],
    "usage_bad_residue": [
        "hesse", "add", "--p", "13", "--lambda", "6", "--x", "1,x,3", "--a", "0,1,12",
    ],
    "usage_bad_form_cell": ["ulrich", "trace", "--p", "13", "--a", "1,2,3", "--C", _C_NO_COEFF],
    "usage_bad_shift": ["ext", "dims", "--p", "13", "--a", "1,2,3", "--m=1,y"],
    "verify_all": ["verify", "all"],
    "verify_all_p13": ["verify", "all", "--p", "13"],
    "verify_all_p19": ["verify", "all", "--p", "19"],
}


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.setenv("HESSE_MOORE_SEED", SEED)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert want["argv"] == CASES[name]
    code, stdout = run_cli(CASES[name])
    assert code == want["exit_code"]
    assert stdout == want["stdout"]


def test_no_stale_golden_files():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)


if __name__ == "__main__":
    os.environ["HESSE_MOORE_SEED"] = SEED
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, stdout = run_cli(argv)
        record = {"argv": argv, "exit_code": code, "stdout": stdout}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
