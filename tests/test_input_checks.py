"""Every input check of the package raises its own error: one row per
check, each a call that reaches it, the exception type and its text."""

import re

import pytest

from hesse_moore import cli
from hesse_moore.field import FieldElement, primitive_root_of_unity
from hesse_moore.heisenberg import (
    HeisenbergElement,
    heis3_representation,
    orbit,
    schrodinger_character,
)
from hesse_moore.moore import FormMatrix, adjugate_det, coordinate_vars
from hesse_moore.poly import HomForm, divide
from hesse_moore.ulrich import divergence

P = 13
X = coordinate_vars(P)
X7 = coordinate_vars(7)

ROWS = [
    ("cli-triple-count", lambda: cli._triple("1,2", P), cli.UsageError,
     "expected three comma-separated residues, got '1,2'"),
    ("cli-matrix-json", lambda: cli._parse_matrix("[", 1, P), cli.UsageError,
     "matrix must be JSON (3x3 array of form strings)"),
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
]


@pytest.mark.parametrize(
    "call, exception, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_input_check_raises(call, exception, message):
    with pytest.raises(exception, match=re.escape(message)):
        call()
