"""Exact linear algebra over F_p.

Two kernels work on plain int residues with the modulus passed once.
The dense one, ``rref_mod``, is Gauss-Jordan on lists of lists, for
reduced rows: ``nullspace_mod`` (through ``kernel_basis``),
``solve_mod``, ``rank_mod``, ``same_span_mod`` and ext's solutions read
their answers off it.  Its one refinement: a row update touches only
the nonzero entries of the pivot row, in place, which halves the work
on dense rows.  Reduced row echelon form is canonical, which makes
subspace comparison a matter of comparing rref bases.  The sparse one,
``echelon_mod``, is for pivots alone: it reduces {column: int} rows
one by one against an echelon basis, touching only nonzeros, which
suits ext's systems (a few nonzeros per row); the leading columns of
any echelon basis of a span are the pivots of its rref.  ``densify``
turns such rows into lists.  Sizes here are small (at most a few
hundred rows), so plain elimination is all we need.

A pivot is inverted by the built-in pow(x, -1, p), the one inverse
idiom of the package.  ``mat_mul_mod`` multiplies int matrices (the
Heisenberg trace invariants and tensor actions).  Only ``rref`` touches
FieldElement, through field.residues in and FieldElement rows out.
"""

from __future__ import annotations

from . import field
from .field import FieldElement

Matrix = list[list[FieldElement]]


# -- the int kernel -------------------------------------------------------


def rref_mod(m: list[list[int]], p: int) -> list[int]:
    """Reduce m to reduced row echelon form over F_p in place; return the
    pivot columns.  Entries may be any ints; afterwards they are residues
    in [0, p), and the first len(pivots) rows are the nonzero ones.  The
    rows of m are replaced by fresh lists first, so the row lists the
    caller put in m are never mutated."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for i in range(rows):
        m[i] = [x % p for x in m[i]]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        inv = pow(prow[c], -1, p)
        # rows r.. vanish left of column c, so the pivot row's nonzero
        # entries are all a row update needs to touch
        terms = [(j, prow[j] * inv % p) for j in range(c, cols) if prow[j]]
        for j, y in terms:
            prow[j] = y
        for i in range(rows):
            row = m[i]
            factor = row[c]
            if factor and i != r:
                for j, y in terms:
                    row[j] = (row[j] - factor * y) % p
        pivots.append(c)
        r += 1
    return pivots


def echelon_mod(rows, p: int) -> dict[int, dict[int, int]]:
    """An echelon basis over F_p of the span of the sparse int rows
    ({column: int}, left untouched), keyed by leading column: each row
    is 1 there, 0 at every column left of it, and holds its nonzero
    residues only.  The keys are the pivots rref_mod finds."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        v = {c: r for c, x in row.items() if (r := x % p)}
        while v:
            lead = min(v)
            f = v.pop(lead)
            tail = basis.get(lead)
            if tail is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    for c in v:
                        v[c] = v[c] * inv % p
                basis[lead] = v
                break
            # a basis row is its tail until the end, so v loses its lead
            for c, y in tail.items():
                if x := (v.get(c, 0) - f * y) % p:
                    v[c] = x
                else:
                    del v[c]
    for lead, tail in basis.items():
        tail[lead] = 1
    return basis


def densify(rows, width: int) -> list[list[int]]:
    """The width-wide int lists of the sparse rows ({column: int})."""
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def mat_mul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """The product a @ b of int matrices, reduced mod p."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def nullspace_mod(m: list[list[int]], p: int) -> list[list[int]]:
    """kernel_basis of a nonempty m over F_p, after reducing m in place."""
    return kernel_basis(m, rref_mod(m, p), len(m[0]), p)


def kernel_basis(m: list[list[int]], pivots: list[int], cols: int, p: int) -> list[list[int]]:
    """Basis of the null space of cols-wide rows m in reduced row echelon
    form with these pivot columns, one vector per free column, in order.
    Each is 1 at its free column and 0 right of it and at the other free
    columns, so a kernel vector's coordinates are its entries there."""
    basis = []
    for fc in sorted(set(range(cols)).difference(pivots)):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] % p
        basis.append(v)
    return basis


def solve_mod(m: list[list[int]], b: list[int], p: int) -> list[int] | None:
    """One solution of m @ x = b over F_p (free variables zero), or None
    when the system is inconsistent; m is left untouched.  b needs one
    entry per row of m."""
    if len(b) != len(m):
        raise ValueError(f"{len(m)} equations but {len(b)} right-hand sides")
    cols = len(m[0]) if m else 0
    aug = [row + [bi] for row, bi in zip(m, b)]
    pivots = rref_mod(aug, p)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][cols]
    return x


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of the int rows (left untouched)."""
    return len(rref_mod([list(row) for row in rows], p))


def same_span_mod(u: list[list[int]], v: list[list[int]], p: int) -> bool:
    """Whether the int rows u and v span the same subspace of F_p^n."""
    bases = []
    for rows in (u, v):
        m = [list(row) for row in rows]
        bases.append(m[: len(rref_mod(m, p))])
    return bases[0] == bases[1]


# -- the FieldElement boundary ----------------------------------------------


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns (input left untouched)."""
    flat, p = field.residues([x for row in a for x in row])
    values = iter(flat)
    m = [[next(values) for _ in row] for row in a]
    pivots = rref_mod(m, p)
    return [[FieldElement(x, p) for x in row] for row in m], pivots
