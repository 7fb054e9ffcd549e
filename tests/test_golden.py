"""Byte-for-byte golden outputs of fixed CLI invocations.

Each tests/golden/<name>.json records the argv, exit code and stdout of
one ``cli.main`` call run in-process with HESSE_MOORE_SEED=0.  Stderr
(timings, argparse usage text) is not recorded.  test_61bit_relation
states what the runs at p = 2^61 - 1 only imply together: the dimensions,
the certificate, the Ext classes and the scalar-multiplication sum rule.
After an intended change of output, regenerate the files with

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

# the 61-bit prime 2^61 - 1, where every coefficient product passes 64 bits
P61 = str(2**61 - 1)
# the extension_triple b of `ulrich rank2 --a 1,2,3` at P61, and the
# `moore build` matrices of b and of 1,2,3 (A itself), as P61_RELATIONS checks
_B_61 = "19,2305843009213693899,21"
_C_B_61 = json.dumps(
    [
        ["19*x0^1", "2305843009213693899*x2^1", "21*x1^1"],
        ["2305843009213693899*x1^1", "21*x0^1", "19*x2^1"],
        ["21*x2^1", "19*x1^1", "2305843009213693899*x0^1"],
    ]
)
_C_A_61 = json.dumps(
    [["1*x0^1", "2*x2^1", "3*x1^1"], ["2*x1^1", "3*x0^1", "1*x2^1"], ["3*x2^1", "1*x1^1", "2*x0^1"]]
)
# two 60-bit multipliers, and n1*a and n2*a for a = (1, 2, 3) on lambda = 6 at P61
_N1, _N2 = 987654321098765432, 1111111111111111111
_N1_A_61 = "1,210710311622262108,536973606339821022"
_N2_A_61 = "1,1681076866150016863,1600476436907755062"
_MUL_61 = ["hesse", "mul", "--p", P61, "--lambda", "6", "--a", "1,2,3", "--n"]

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
    "ext_dims_61bit": ["ext", "dims", "--p", P61, "--a", "1,2,3", "--m=-2,-1,0,1,2"],
    "ext_basis_m0_61bit": ["ext", "basis", "--p", P61, "--a", "1,2,3", "--m=0"],
    "ext_basis_m1_61bit": ["ext", "basis", "--p", P61, "--a", "1,2,3", "--m=1"],
    "ext_basis_m2_61bit": ["ext", "basis", "--p", P61, "--a", "1,2,3", "--m=2"],
    "ulrich_rank2_61bit": ["ulrich", "rank2", "--p", P61, "--a", "1,2,3"],
    "moore_build_b_61bit": ["moore", "build", "--p", P61, "--a", _B_61],
    "moore_build_61bit": ["moore", "build", "--p", P61, "--a", "1,2,3"],
    "ext_class_b_61bit": ["ext", "class", "--p", P61, "--a", "1,2,3", "--C", _C_B_61],
    "ext_class_a_61bit": ["ext", "class", "--p", P61, "--a", "1,2,3", "--C", _C_A_61],
    "hesse_mul_n1_61bit": _MUL_61 + [str(_N1)],
    "hesse_mul_n2_61bit": _MUL_61 + [str(_N2)],
    "hesse_mul_n12_61bit": _MUL_61 + [str(_N1 + _N2)],
    "hesse_add_61bit": [
        "hesse", "add", "--p", P61, "--lambda", "6", "--x", _N1_A_61, "--a", _N2_A_61,
    ],
    "heis_tensor_61bit": ["heis", "tensor", "--p", P61],
    "heis_restrict_61bit": ["heis", "restrict", "--p", P61, "--n", "6", "--d", "3", "--j", "1"],
    "verify_all": ["verify", "all"],
    "verify_all_p13": ["verify", "all", "--p", "13"],
    "verify_all_p19": ["verify", "all", "--p", "19"],
}


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
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


def _payload(name):
    """The stdout JSON that golden `name` pins."""
    return json.loads(json.loads((GOLDEN / f"{name}.json").read_text())["stdout"])


def _option(name, flag):
    argv = CASES[name]
    return argv[argv.index(flag) + 1]


def _csv(values):
    return ",".join(map(str, values))


def _basis_sizes(name):
    out = _payload(name)
    return [out["quotient_dimension"], len(out["homotopies"]), len(out["solutions"])]


# what the 61-bit goldens only imply, stated: each row reads (got, want) off
# the pinned payloads and argv, compared as JSON text so that true is not 1
P61_RELATIONS = {
    "ext dims 0, 3, 1, 0, 0": lambda: (
        _payload("ext_dims_61bit")["dims"], {"-2": 0, "-1": 3, "0": 1, "1": 0, "2": 0}
    ),
    "ext basis m=0 (quotient, homotopies, solutions)": lambda: (
        _basis_sizes("ext_basis_m0_61bit"), [1, 17, 18]
    ),
    "ext basis m=1 (quotient, homotopies, solutions)": lambda: (
        _basis_sizes("ext_basis_m1_61bit"), [0, 42, 42]
    ),
    "ext basis m=2 (quotient, homotopies, solutions)": lambda: (
        _basis_sizes("ext_basis_m2_61bit"), [0, 75, 75]
    ),
    "rank2 certified with divergence 3": lambda: (
        [_payload("ulrich_rank2_61bit")[key] for key in ("certified", "divergence")], [True, 3]
    ),
    "b is the rank2 extension_triple": lambda: (
        _option("moore_build_b_61bit", "--a"),
        _csv(_payload("ulrich_rank2_61bit")["extension_triple"]),
    ),
    "class 3 of the moore build of b": lambda: (
        [json.loads(_option("ext_class_b_61bit", "--C")), _payload("ext_class_b_61bit")["class"]],
        [_payload("moore_build_b_61bit")["matrix"], 3],
    ),
    "class 0 of the moore build of a, A itself": lambda: (
        [json.loads(_option("ext_class_a_61bit", "--C")), _payload("ext_class_a_61bit")["class"]],
        [_payload("moore_build_61bit")["matrix"], 0],
    ),
    "n1*a + n2*a = (n1+n2)*a": lambda: (
        [_option("hesse_add_61bit", "--x"), _option("hesse_add_61bit", "--a"),
         _payload("hesse_add_61bit")["point"]],
        [_csv(_payload("hesse_mul_n1_61bit")["point"]),
         _csv(_payload("hesse_mul_n2_61bit")["point"]),
         _payload("hesse_mul_n12_61bit")["point"]],
    ),
    "n1 + n2 is the third multiplier": lambda: (
        _payload("hesse_mul_n12_61bit")["n"],
        _payload("hesse_mul_n1_61bit")["n"] + _payload("hesse_mul_n2_61bit")["n"],
    ),
    "heis tensor holds": lambda: (_payload("heis_tensor_61bit")["holds"], True),
    "heis restrict --n 6 --d 3 --j 1 holds": lambda: (
        _payload("heis_restrict_61bit")["holds"], True
    ),
}


@pytest.mark.parametrize("relation", list(P61_RELATIONS))
def test_61bit_relation(relation):
    got, want = P61_RELATIONS[relation]()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


if __name__ == "__main__":
    os.environ["HESSE_MOORE_SEED"] = SEED
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, stdout = run_cli(argv)
        record = {"argv": argv, "exit_code": code, "stdout": stdout}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
