"""Command-line front end: every construction and verification as a
subcommand with canonical JSON output.

Output JSON is deterministic byte-for-byte for fixed inputs (sorted
keys, compact separators); timing goes to standard error so it never
perturbs the payload.  OPTIONS names, for each action, its handler and
the options it reads, each required or with its default, and its typed
converter; argparse alone picks the handler.  Options follow their
action (``hesse add --p 13 ...``).  Exit codes: 0 ok, 1 domain error, 2
usage error at any level (a group or action missing or unknown; an
option missing, malformed, abbreviated, not read by the action or given
before it; a stray token: argparse reports these before any curve or
factorization is built), 3 internal error (a failed cross-check,
reported as {"error": ..., "status": "internal"}).  Any other exception
is a bug and propagates.  `verify all` exits 3 with "status": "internal"
when a check raised ("raised <Type>: <text>"), else 1 when one failed.
A closed stdout is no error.  HESSE_MOORE_SEED fixes the randomness
source used by sampled checks in `verify all`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from functools import cache

from . import ext as ext_mod
from . import heisenberg as heis
from . import ulrich as ulrich_mod
from . import verify as verify_mod
from .field import FieldElement, primitive_root_of_unity, residues, triple_residues
from .hesse import HesseCurve, curve_through
from .moore import (
    FormMatrix,
    ProjectivePoint,
    left_kernel_mod,
    moore,
    moore_adjugate,
    moore_det,
    moore_scalar,
)
from .poly import HomForm


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Every parser of the CLI: its errors reach main as a UsageError."""

    def error(self, message):
        raise UsageError(message)


# -- option converters: a ValueError is argparse's "invalid <name> value" --


def triple(text: str) -> tuple[int, int, int]:
    """Three comma-separated integers: a point or a Moore triple."""
    a0, a1, a2 = map(int, text.split(","))
    return a0, a1, a2


def shifts(text: str) -> list[int]:
    """Comma-separated integer shifts m."""
    return [int(v) for v in text.split(",")]


def grid(text: str) -> list[list[str]]:
    """A JSON 3x3 array of strings; the action parses them as forms."""
    try:
        cells = json.loads(text)
    except RecursionError:  # nested deeper than the decoder can go: no 3x3 array
        cells = None
    if not (isinstance(cells, list) and len(cells) == 3 and all(
        isinstance(r, list) and len(r) == 3 and all(isinstance(c, str) for c in r) for r in cells
    )):
        raise ValueError("not a 3x3 array of form strings")
    return cells


def sign(text: str) -> str:
    """The --lambda-sign convention, minus or plus."""
    if text not in ("minus", "plus"):
        raise ValueError(text)
    return text


def _field(values, p: int) -> tuple[FieldElement, ...]:
    return tuple(FieldElement(v, p) for v in values)


def _a(args) -> tuple[FieldElement, ...]:
    return _field(args.a, args.p)


def _point(values, p: int) -> ProjectivePoint:
    return ProjectivePoint(_field(values, p))


def _curve(args) -> HesseCurve:
    p, lam = args.p, getattr(args, "lambda")
    if lam is not None:
        lam = FieldElement(lam, p)  # checks p before it reduces lam
        return HesseCurve(-lam if args.lambda_sign == "plus" else lam)
    if args.a is not None:
        return curve_through(_point(args.a, p))
    raise UsageError("need --lambda or --a to determine the curve")


def _scanned_curve(args) -> HesseCurve:
    """The curve of args, refused before any point is enumerated when p
    is too large for the O(p) scan (1.58 MB of points at p = 100,003)."""
    curve = _curve(args)
    if curve.p > 100_000:
        raise ValueError(
            f"a point scan takes O(p) time and memory: p must be at most 100000, got p = {curve.p}"
        )
    return curve


def _point_set(points) -> dict:
    return {"count": len(points), "points": sorted(pt.as_ints() for pt in points)}


def _forms(cells, degree: int, p: int) -> FormMatrix:
    try:
        forms = [[HomForm.parse(cell, degree, p) for cell in row] for row in cells]
    except (ValueError, IndexError) as exc:
        raise UsageError(f"matrix cells must be forms of degree {degree}: {exc}") from None
    return FormMatrix(forms)


# -- handlers -------------------------------------------------------------
# Each names the library functions it calls in its body, so a function
# rebound in its module (a test's monkeypatch) is the one called.


def _hesse_points(args):
    curve = _scanned_curve(args)
    pts = curve.enumerate_points()
    return {**_point_set(pts), "lambda": curve.lam.value, "p": curve.p}


def _hesse_torsion6(args):
    curve = _scanned_curve(args)
    pts = curve.torsion6()
    primitive = [
        a for a in pts
        if curve.mul(2, a) != curve.identity and curve.mul(3, a) != curve.identity
    ]
    return {**_point_set(pts), "primitive_count": len(primitive)}


def _group_law(method):
    """The handler of hesse add, sub, double or triple: the curve method
    of that name on --x, when the action reads it, and --a."""

    def handler(args):
        a = _point(args.a, args.p)
        x = [_point(args.x, args.p)] if "x" in args else []
        return {"point": getattr(_curve(args), method)(*x, a).as_ints()}

    return handler


def _hesse_mul(args):
    a = _point(args.a, args.p)
    return {"n": args.n, "point": _curve(args).mul(args.n, a).as_ints()}


def _moore_kernel(args):
    a, x = _a(args), _field(args.x, args.p)
    m = moore_scalar(triple_residues(a)[0], triple_residues(x)[0])
    return {"point": list(left_kernel_mod(m, args.p))}


def _heis_orbit(args):
    orb = heis.orbit(_a(args))
    return {"orbit": sorted(pt.as_ints() for pt in orb), "size": len(orb)}


def _heis_equiv(args):
    a, a2 = _a(args), _field(args.a2, args.p)
    same_curve = heis.on_same_curve(a, a2)
    inv, inv2 = heis.trace_invariants(a), heis.trace_invariants(a2)
    return {
        "equivalent": same_curve and inv == inv2,
        "invariants": list(inv),
        "invariants2": list(inv2),
        "orbit_size": len(heis.orbit(a)),
    }


def _heis_characters(args):
    n, p = args.n, args.p
    if n > 18:  # 1.2 MB of output at n = 18
        raise ValueError(f"the character table has n^4 entries: n must be at most 18, got n = {n}")
    zeta = primitive_root_of_unity(p, n)
    table = {}
    for j in range(n):
        chi = heis.schrodinger_character(n, j, zeta, p)
        table[str(j)] = {f"{g.r},{g.s},{g.t}": chi(g) for g in heis.hn_elements(n)}
    return {"n": n, "p": p, "zeta": zeta, "table": table}


def _heis_restrict(args):
    holds = heis.verify_restriction(args.n, args.d, args.j, args.p)
    return {"n": args.n, "d": args.d, "j": args.j, "holds": holds}


def _certified(fac) -> dict:
    return {"A": fac.A.serialize(), "B": fac.B.serialize(), "certified": True,
            "f": fac.f.form.serialize()}


def _ulrich_rank2(args):
    blocks = ulrich_mod.rank2_ulrich(_a(args))
    return {**_certified(blocks.factorization), "divergence": blocks.divergence.value,
            "extension_triple": residues(blocks.extension_triple)[0]}


def _ulrich_partner(args):
    a, C = _a(args), _forms(args.C, args.deg, args.p)
    return {"D": ulrich_mod.partner_D(ulrich_mod.moore_factorization(a), C).serialize()}


def _ulrich_trace(args):
    a, C = _a(args), _forms(args.C, args.deg, args.p)
    fac = ulrich_mod.moore_factorization(a)
    return {
        "bcb_congruence": ulrich_mod.bcb_congruence(fac, C),
        "bcb_divisible": ulrich_mod.bcb_divisible(fac, C),
        "trace_criterion": ulrich_mod.trace_criterion(fac, C),
    }


def _ext_dims(args):
    fac = ulrich_mod.moore_factorization(_a(args))
    return {"dims": {str(m): ext_mod.ext_space(fac, m).quotient_dimension for m in args.m}}


def _ext_basis(args):
    p, m = args.p, args.m
    space = ext_mod.ext_space(_a(args), m)

    def serialized(vecs):
        return [FormMatrix.from_row(3, m + 1, p, v).serialize() for v in vecs]

    return {
        "homotopies": serialized(space.homotopies),
        "m": m,
        "quotient_dimension": space.quotient_dimension,
        "representatives": serialized(space.representatives),
        "solutions": serialized(space.solutions),
    }


def _ext_class(args):
    return {"class": ext_mod.divergence_class(_a(args), _forms(args.C, 1, args.p))}


def _verify_all(args):
    seed = int(os.environ.get("HESSE_MOORE_SEED", "0"))
    results = verify_mod.run_all(random.Random(seed), p=args.p)
    payload = {
        "checks": [{"detail": r.detail, "name": r.name, "passed": r.passed} for r in results],
        "failed": sum(not r.passed for r in results),
        "passed": sum(r.passed for r in results),
        "seed": seed,
    }
    raised = any(isinstance(r, verify_mod.CheckRaised) for r in results)
    return payload, 3 if raised else int(not all(r.passed for r in results))


# -- each action's handler and the options it reads -------------------------

REQUIRED = object()  # the default of an option the action cannot do without

_P = {"--p": (int, REQUIRED)}
_A = {**_P, "--a": (triple, REQUIRED)}
_CURVE = {**_P, "--lambda": (int, None), "--lambda-sign": (sign, "minus"), "--a": (triple, None)}
_ON_CURVE = {**_CURVE, "--a": (triple, REQUIRED)}
_X = {"--x": (triple, REQUIRED)}
_C = {**_A, "--C": (grid, REQUIRED)}  # ext class reads linear forms
_C_DEG = {**_C, "--deg": (int, 1)}

# group -> (help, {action: (handler, {option: (converter, default or REQUIRED)})})
OPTIONS = {
    "hesse": ("curve group law and torsion", {
        "points": (_hesse_points, _CURVE),
        "add": (_group_law("add"), {**_ON_CURVE, **_X}),
        "sub": (_group_law("sub"), {**_ON_CURVE, **_X}),
        "double": (_group_law("double"), _ON_CURVE),
        "triple": (_group_law("triple"), _ON_CURVE),
        "mul": (_hesse_mul, {**_ON_CURVE, "--n": (int, REQUIRED)}),
        "torsion3": (lambda args: _point_set(_curve(args).torsion3()), _CURVE),
        "torsion6": (_hesse_torsion6, _CURVE),
    }),
    "moore": ("Moore matrices", {
        "build": (lambda args: {"matrix": moore(_a(args)).serialize()}, _A),
        "det": (lambda args: {"det": moore_det(_a(args)).serialize()}, _A),
        "adjugate": (lambda args: {"adjugate": moore_adjugate(_a(args)).serialize()}, _A),
        "kernel": (_moore_kernel, {**_A, **_X}),
    }),
    "heis": ("Heisenberg actions and characters", {
        "orbit": (_heis_orbit, _A),
        "invariants": (lambda args: {"invariants": list(heis.trace_invariants(_a(args)))}, _A),
        "equiv": (_heis_equiv, {**_A, "--a2": (triple, REQUIRED)}),
        "characters": (_heis_characters, {**_P, "--n": (int, 3)}),
        "restrict": (_heis_restrict, {**_P, "--n": (int, 3), "--d": (int, 3), "--j": (int, 1)}),
        "tensor": (lambda args: {"holds": heis.verify_tensor_h3(args.p), "p": args.p}, _P),
    }),
    "ulrich": ("matrix factorizations", {
        "rank1": (lambda args: _certified(ulrich_mod.moore_factorization(_a(args))), _A),
        "rank2": (_ulrich_rank2, _A),
        "partner": (_ulrich_partner, _C_DEG),
        "trace": (_ulrich_trace, _C_DEG),
    }),
    "ext": ("graded extension spaces", {
        "dims": (_ext_dims, {**_A, "--m": (shifts, "-2,-1,0,1")}),
        "basis": (_ext_basis, {**_A, "--m": (int, REQUIRED)}),
        "class": (_ext_class, _C),
    }),
    "verify": ("acceptance battery", {"all": (_verify_all, {"--p": (int, None)})}),
}

_HELP = {
    "--p": "field modulus (verify: restrict prime-parameterized sweeps to F_p)",
    "--lambda-sign": "minus: f = x0^3+x1^3+x2^3 - lambda*x0x1x2; plus negates lambda",
    "--m": "shift(s), comma-separated; use --m=-1 for negative values",
    "--C": "JSON 3x3 array of forms of degree --deg (ext class: linear forms)",
}


@cache  # parsing reads the parser and leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hesse-moore",
        description="Moore-matrix determinantal representations of Hesse cubics",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, actions) in OPTIONS.items():
        group_parser = groups.add_parser(group, help=group_help)
        subs = group_parser.add_subparsers(dest="action", required=True)
        for action, (handler, options) in actions.items():
            sp = subs.add_parser(action, allow_abbrev=False)
            sp.set_defaults(handler=handler)
            for flag, (convert, default) in options.items():
                sp.add_argument(flag, type=convert, help=_HELP.get(flag),
                                required=default is REQUIRED,
                                default=None if default is REQUIRED else default)
    return parser


# ValueError covers KernelError, FactorizationError and RepresentationError
_DOMAIN_ERRORS = (ValueError, ZeroDivisionError)


def _emit(payload: dict) -> None:
    """Print the canonical JSON line; a reader that closed stdout is no error."""
    try:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")), flush=True)
    except BrokenPipeError:
        # stdout goes to devnull, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.monotonic()
        out = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit({"error": str(exc), "status": "error"})
        return 1
    except AssertionError as exc:
        # an internal cross-check failed (e.g. the trace-invariant closed forms)
        _emit({"error": str(exc), "status": "internal"})
        return 3
    out, code = out if isinstance(out, tuple) else (out, 0)
    _emit({"status": "internal" if code == 3 else "ok", **out})
    elapsed_ms = (time.monotonic() - start) * 1000.0
    print(f"timing_ms={elapsed_ms:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
