"""Every input check of the package raises its own error: one row per
check, each a call that reaches it, the exception type and its whole text."""

import re

import pytest

from hesse_moore import cli
from hesse_moore.field import FieldElement, primitive_root_of_unity
from hesse_moore.heisenberg import (
    HeisenbergElement,
    heis3_representation,
    n_matrices,
    orbit,
    schrodinger_character,
    trace_invariants,
)
from hesse_moore.hesse import curve_through
from hesse_moore.moore import (
    FormMatrix,
    ProjectivePoint,
    adjugate_det,
    coordinate_vars,
    normalize_mod,
)
from hesse_moore.poly import HomForm, divide
from hesse_moore.ulrich import divergence, moore_factorization

P = 13
X = coordinate_vars(P)
X7 = coordinate_vars(7)
ZERO_COORDINATE = tuple(FieldElement(v, P) for v in (0, 1, 12))


def _parse(*argv):
    return cli.build_parser().parse_args(argv)


ROWS = [
    ("cli-triple-count", lambda: _parse("moore", "build", "--p", "13", "--a", "1,2"),
     cli.UsageError, "argument --a: invalid triple value: '1,2'"),
    ("cli-matrix-json", lambda: _parse("ext", "class", "--p", "13", "--a", "1,2,3", "--C", "["),
     cli.UsageError, "argument --C: invalid grid value: '['"),
    ("heisenberg-order", lambda: HeisenbergElement(0, 0, 0, 0), ValueError,
     "order parameter must be positive"),
    ("heis3-representation-n", lambda: heis3_representation(HeisenbergElement(6, 0, 0, 0), P),
     ValueError, "matrix realization is for H_3 only"),
    ("root-of-unity-order", lambda: primitive_root_of_unity(P, 0), ValueError,
     "0 does not divide p-1 = 12"),
    # 2^3 = 8 mod 13: only the zeta^n = 1 clause rejects this zeta
    ("character-zeta-order", lambda: schrodinger_character(3, 1, 2, P), ValueError,
     "zeta must be a primitive n-th root of unity"),
    ("orbit-zero", lambda: orbit(tuple(FieldElement(0, P) for _ in range(3))), ValueError,
     "orbit of the zero triple"),
    ("form-matrix-square", lambda: FormMatrix([[X[0], X[1]]]), ValueError,
     "matrix must be square"),
    ("adjugate-det-shape", lambda: adjugate_det([[1, 2], [3, 4]]), ValueError,
     "adjugate_det expects a 3x3 matrix"),
    ("homform-coefficient", lambda: HomForm(1, P, {(1, 0, 0): FieldElement(1, 7)}), ValueError,
     "coefficient modulus mismatch"),
    ("homform-type", lambda: X[0] + 1, TypeError, "expected HomForm"),
    ("homform-modulus", lambda: X[0] + X7[0], ValueError, "modulus mismatch"),
    ("homform-scale", lambda: X[0].scale(FieldElement(2, 7)), ValueError, "modulus mismatch"),
    ("homform-evaluate", lambda: X[0].evaluate(tuple(FieldElement(1, 7) for _ in range(3))),
     ValueError, "modulus mismatch"),
    ("divide-modulus", lambda: divide(X[0], X7[0]), ValueError, "modulus mismatch"),
    ("divergence-modulus", lambda: divergence((X[0], X[1], X7[2])), ValueError,
     "modulus mismatch"),
    # each of these guards a modular inverse; without its guard the call
    # would raise pow's own "base is not invertible for the given modulus"
    ("field-inv", lambda: FieldElement(0, P).inv(), ZeroDivisionError, "0 has no inverse in F_13"),
    ("normalize-zero", lambda: normalize_mod((0, 0, 0), P), ValueError,
     "(0,0,0) is not a projective point"),
    ("point-zero", lambda: ProjectivePoint.from_ints((0, 0, 0), P), ValueError,
     "(0,0,0) is not a projective point"),
    ("curve-through-zero", lambda: curve_through(ProjectivePoint(ZERO_COORDINATE)), ValueError,
     "point has a zero coordinate; lambda is undefined"),
    ("factorization-zero", lambda: moore_factorization(ZERO_COORDINATE), ValueError,
     "point has a zero coordinate; lambda is undefined"),
    ("n-matrices-zero", lambda: n_matrices(ZERO_COORDINATE), ValueError,
     "n_matrices needs a0*a1*a2 != 0"),
    ("trace-invariants-zero", lambda: trace_invariants(ZERO_COORDINATE), ValueError,
     "n_matrices needs a0*a1*a2 != 0"),
    ("divide-zero", lambda: divide(X[0], HomForm.zero(1, P)), ZeroDivisionError,
     "division by the zero form"),
]


@pytest.mark.parametrize(
    "call, exception, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_input_check_raises(call, exception, message):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()

