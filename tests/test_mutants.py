"""The fault table: each row injects one fault into the library and
asserts that the battery check beside it catches it, by failing or by
raising (mutation analysis: DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978).

A fault replaces one name in every namespace that holds it, so that the
`from ... import` copies see it too; a method is replaced on its class.
The strict xfail rows are faults that no check catches yet.
"""

import dataclasses
import importlib
import random

import pytest

from hesse_moore import verify
from hesse_moore.hesse import iota


def _negated(original):
    return lambda a: -original(a)


def _wrong_01_entry(original):
    def moore_scalar(a, b):
        m = original(a, b)
        m[0][1] = a[1] * b[1]
        return m

    return moore_scalar


def _of_transpose(original):
    return lambda m, p: original([list(col) for col in zip(*m)], p)


def _missing_a_point(original):
    return lambda curve: set(sorted(original(curve), key=repr)[1:])


def _cut_to_3(original):
    return lambda a: set(sorted(original(a), key=repr)[:3])


def _twice(original):
    return lambda a: original(original(a))


def _doubled_j(original):
    return lambda n, j, zeta, p: original(n, 2 * j, zeta, p)


def _negated_at_degree_2(original):
    return lambda fac, C: original(fac, C) != (C.degree == 2)


def _missing_a_representative(original):
    def ext_space(a, m):
        space = original(a, m)
        indices = space.representative_indices[1:]
        return dataclasses.replace(space, representative_indices=indices)

    return ext_space


def _at_the_neighbouring_free_column(original):
    def _free_columns(pivots, width):
        # the entries at the first free column land on the second one
        where = original(pivots, width)
        if len(where) > 1:
            where[min(where)] -= 1
        return where

    return _free_columns


def _without_the_last_pivot(original):
    def echelon_mod(rows, p):
        basis = original(rows, p)
        if basis:
            del basis[max(basis)]
        return basis

    return echelon_mod


def _swapped(original):
    return lambda curve, b, a: original(curve, a, b)


def _t_squared(original):
    return lambda mu, i, j, p: original(mu, 2 * i, j, p)


def _first_row_twice(original):
    def moore_span_basis(a):
        rows = original(a)
        return rows[:1] + rows[:2]

    return moore_span_basis


def _rotated(original):
    def trace_invariants(a):
        t = original(a)
        return t[1:] + t[:1]

    return trace_invariants


def _one_more(original):
    return lambda curve, n, a: original(curve, n + 1, a)


def _sign_flipped(original):
    # -n*a is n*iota(a)
    return lambda curve, n, a: original(curve, n, iota(a))


def _constant(value):
    def make_fault(original):
        return lambda *args: value

    make_fault.__name__ = f"returns {value}"
    return make_fault


CAUGHT = [
    ("determinant_identity", "moore", "moore_det", _negated),
    ("rank_lemma", "moore", "moore_scalar", _wrong_01_entry),
    ("group_law", "moore", "left_kernel_mod", _of_transpose),
    ("group_law", "hesse", "HesseCurve._mul", _sign_flipped),
    ("torsion", "hesse", "HesseCurve.torsion3", _missing_a_point),
    ("torsion", "hesse", "HesseCurve._mul", _one_more),
    ("equivalence_classification", "heisenberg", "orbit", _cut_to_3),
    ("equivalence_classification", "heisenberg", "are_equivalent", _constant(True)),
    ("equivalence_classification", "heisenberg", "trace_invariants", _constant((0, 0, 0))),
    ("conjugation_identities", "heisenberg", "t_action", _twice),
    ("conjugation_identities", "heisenberg", "heis3_matrix", _t_squared),
    ("characters", "heisenberg", "schrodinger_character", _doubled_j),
    ("partner_lemma", "ulrich", "bcb_divisible", _constant(True)),
    ("trace_lemma", "ulrich", "trace_criterion", _negated_at_degree_2),
    ("rank2_blocks", "ext", "divergence_class", _constant(0)),
    ("ext_dimensions", "ext", "ext_space", _missing_a_representative),
    ("ext_dimensions", "ext", "_free_columns", _at_the_neighbouring_free_column),
    ("ext_dimensions", "ext", "moore_span_basis", _first_row_twice),
    ("ext_dimensions", "linalg", "echelon_mod", _without_the_last_pivot),
    ("geometric_interpretations", "hesse", "HesseCurve.sub", _swapped),
]

NOT_YET_CAUGHT = [
    ("equivalence_classification", "heisenberg", "trace_invariants", _rotated),
]


def _row_id(row):
    check, module, name, make_fault = row
    return f"{check}-{name}-{make_fault.__name__}"


# the checks whose failing detail names each part that failed
NAMES_WHAT_FAILED = {"torsion", "characters"}


def test_every_check_has_a_caught_fault():
    checks = dict.fromkeys(f"check_{row[0]}" for row in CAUGHT)
    assert list(checks) == [c.__name__ for c in verify.ALL_CHECKS]


def _check_catches(monkeypatch, patch_everywhere, check, module, name, make_fault):
    owner, _, method = name.rpartition(".")
    if owner:
        cls = getattr(importlib.import_module(f"hesse_moore.{module}"), owner)
        monkeypatch.setattr(cls, method, make_fault(getattr(cls, method)))
    else:
        assert f"hesse_moore.{module}" in patch_everywhere(module, name, make_fault)
    try:
        result = getattr(verify, f"check_{check}")(random.Random(0))
    except (ValueError, AssertionError):
        return None
    assert not result.passed, result.line()
    return result


@pytest.mark.parametrize("row", CAUGHT, ids=[_row_id(r) for r in CAUGHT])
def test_fault_is_caught(monkeypatch, patch_everywhere, row):
    result = _check_catches(monkeypatch, patch_everywhere, *row)
    if row[0] in NAMES_WHAT_FAILED:
        assert result is not None and result.detail.startswith("failed: "), result


@pytest.mark.xfail(strict=True, reason="the check cannot see this fault yet")
@pytest.mark.parametrize("row", NOT_YET_CAUGHT, ids=[_row_id(r) for r in NOT_YET_CAUGHT])
def test_fault_is_not_yet_caught(monkeypatch, patch_everywhere, row):
    _check_catches(monkeypatch, patch_everywhere, *row)


def test_rewriting_check_reads_moore_scalar(patch_everywhere):
    a = (1, 2, 3)
    assert verify._trilinear_rewriting_agree(a)
    patch_everywhere("moore", "moore_scalar", _wrong_01_entry)
    assert not verify._trilinear_rewriting_agree(a)
