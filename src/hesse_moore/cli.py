"""Command-line front end: every construction and verification as a
subcommand with canonical JSON output.

Output JSON is deterministic byte-for-byte for fixed inputs (sorted
keys, compact separators); timing goes to standard error so it never
perturbs the payload.  OPTIONS lists the options each action reads,
each required or with its default, and its typed converter.  Options
follow their action (``hesse add --p 13 ...``).  Exit codes: 0 ok, 1
domain error, 2 usage error (an option missing, malformed, abbreviated,
not read by the action or given before it; argparse reports these
before any curve or factorization is built), 3 internal error (a failed
cross-check, reported as {"error": ..., "status": "internal"}).  Any
other exception is a bug and propagates.  `verify all` exits 3 with
"status": "internal" when a check raised ("raised <Type>: <text>"), else
1 when one failed.  A closed stdout is no error.  The environment
variable HESSE_MOORE_SEED fixes the randomness source used by sampled
checks in `verify all`.
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
    """A group or action parser: its errors reach main as a UsageError."""

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


def _sorted_points(points) -> list[list[int]]:
    return sorted(pt.as_ints() for pt in points)


def _forms(cells, degree: int, p: int) -> FormMatrix:
    try:
        forms = [[HomForm.parse(cell, degree, p) for cell in row] for row in cells]
    except (ValueError, IndexError) as exc:
        raise UsageError(f"matrix cells must be forms of degree {degree}: {exc}") from None
    return FormMatrix(forms)


# -- hesse ---------------------------------------------------------------


def cmd_hesse(args):
    action, p = args.action, args.p
    if action in ("points", "torsion3", "torsion6"):
        curve = _curve(args)
        if action == "points":
            pts = curve.enumerate_points()
            return {"count": len(pts), "lambda": curve.lam.value, "p": curve.p,
                    "points": _sorted_points(pts)}
        if action == "torsion3":
            pts = curve.torsion3()
            return {"count": len(pts), "points": _sorted_points(pts)}
        pts = curve.torsion6()
        primitive = [
            a for a in pts
            if curve.mul(2, a) != curve.identity and curve.mul(3, a) != curve.identity
        ]
        return {"count": len(pts), "points": _sorted_points(pts),
                "primitive_count": len(primitive)}
    a = _point(args.a, p)
    points = (_point(args.x, p), a) if action in ("add", "sub") else (a,)
    curve = _curve(args)
    if action == "mul":
        return {"n": args.n, "point": curve.mul(args.n, a).as_ints()}
    return {"point": getattr(curve, action)(*points).as_ints()}


# -- moore ---------------------------------------------------------------


def cmd_moore(args):
    a = _field(args.a, args.p)
    if args.action == "build":
        return {"matrix": moore(a).serialize()}
    if args.action == "det":
        return {"det": moore_det(a).serialize()}
    if args.action == "adjugate":
        return {"adjugate": moore_adjugate(a).serialize()}
    if args.action == "kernel":
        x = _field(args.x, args.p)
        m = moore_scalar(triple_residues(a)[0], triple_residues(x)[0])
        return {"point": list(left_kernel_mod(m, args.p))}


# -- heis ----------------------------------------------------------------


def cmd_heis(args):
    p = args.p
    if args.action == "orbit":
        orb = heis.orbit(_field(args.a, p))
        return {"orbit": _sorted_points(orb), "size": len(orb)}
    if args.action == "invariants":
        t = heis.trace_invariants(_field(args.a, p))
        return {"invariants": list(t)}
    if args.action == "equiv":
        a, a2 = _field(args.a, p), _field(args.a2, p)
        same_curve = heis.on_same_curve(a, a2)
        inv, inv2 = heis.trace_invariants(a), heis.trace_invariants(a2)
        return {
            "equivalent": same_curve and inv == inv2,
            "invariants": list(inv),
            "invariants2": list(inv2),
            "orbit_size": len(heis.orbit(a)),
        }
    if args.action == "characters":
        n = args.n
        zeta = primitive_root_of_unity(p, n)
        table = {}
        for j in range(n):
            chi = heis.schrodinger_character(n, j, zeta, p)
            table[str(j)] = {f"{g.r},{g.s},{g.t}": chi(g) for g in heis.hn_elements(n)}
        return {"n": n, "p": p, "zeta": zeta, "table": table}
    if args.action == "restrict":
        holds = heis.verify_restriction(args.n, args.d, args.j, p)
        return {"n": args.n, "d": args.d, "j": args.j, "holds": holds}
    if args.action == "tensor":
        return {"holds": heis.verify_tensor_h3(p), "p": p}


# -- ulrich ---------------------------------------------------------------


def cmd_ulrich(args):
    p = args.p
    a = _field(args.a, p)
    if args.action == "rank1":
        fac = ulrich_mod.moore_factorization(a)
        return {
            "A": fac.A.serialize(),
            "B": fac.B.serialize(),
            "certified": True,
            "f": fac.f.form.serialize(),
        }
    if args.action == "rank2":
        blocks = ulrich_mod.rank2_ulrich(a)
        return {
            "A": blocks.factorization.A.serialize(),
            "B": blocks.factorization.B.serialize(),
            "certified": True,
            "divergence": blocks.divergence.value,
            "extension_triple": residues(blocks.extension_triple)[0],
            "f": blocks.factorization.f.form.serialize(),
        }
    C = _forms(args.C, args.deg, p)
    fac = ulrich_mod.moore_factorization(a)
    if args.action == "partner":
        D = ulrich_mod.partner_D(fac, C)
        return {"D": D.serialize()}
    if args.action == "trace":
        return {
            "bcb_congruence": ulrich_mod.bcb_congruence(fac, C),
            "bcb_divisible": ulrich_mod.bcb_divisible(fac, C),
            "trace_criterion": ulrich_mod.trace_criterion(fac, C),
        }


# -- ext ------------------------------------------------------------------


def cmd_ext(args):
    p = args.p
    a = _field(args.a, p)
    if args.action == "dims":
        fac = ulrich_mod.moore_factorization(a)
        return {"dims": {str(m): ext_mod.ext_space(fac, m).quotient_dimension for m in args.m}}
    if args.action == "basis":
        m = args.m
        space = ext_mod.ext_space(a, m)

        def serialized(vecs):
            return [FormMatrix.from_row(3, m + 1, p, v).serialize() for v in vecs]

        return {
            "homotopies": serialized(space.homotopies),
            "m": m,
            "quotient_dimension": space.quotient_dimension,
            "representatives": serialized(space.representatives),
            "solutions": serialized(space.solutions),
        }
    if args.action == "class":
        return {"class": ext_mod.divergence_class(a, _forms(args.C, 1, p))}


# -- verify ---------------------------------------------------------------


def cmd_verify(args):
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


# -- the options each action reads ------------------------------------------

REQUIRED = object()  # the default of an option the action cannot do without

_P = {"--p": (int, REQUIRED)}
_A = {**_P, "--a": (triple, REQUIRED)}
_CURVE = {**_P, "--lambda": (int, None), "--lambda-sign": (sign, "minus"), "--a": (triple, None)}
_ON_CURVE = {**_CURVE, "--a": (triple, REQUIRED)}
_X = {"--x": (triple, REQUIRED)}
_C = {**_A, "--C": (grid, REQUIRED)}  # ext class reads linear forms
_C_DEG = {**_C, "--deg": (int, 1)}

# group -> (help, handler, {action: {option: (converter, default or REQUIRED)}})
OPTIONS = {
    "hesse": ("curve group law and torsion", cmd_hesse, {
        "points": _CURVE, "add": {**_ON_CURVE, **_X}, "sub": {**_ON_CURVE, **_X},
        "double": _ON_CURVE, "triple": _ON_CURVE, "mul": {**_ON_CURVE, "--n": (int, REQUIRED)},
        "torsion3": _CURVE, "torsion6": _CURVE,
    }),
    "moore": ("Moore matrices", cmd_moore, {
        "build": _A, "det": _A, "adjugate": _A, "kernel": {**_A, **_X},
    }),
    "heis": ("Heisenberg actions and characters", cmd_heis, {
        "orbit": _A, "invariants": _A, "equiv": {**_A, "--a2": (triple, REQUIRED)},
        "characters": {**_P, "--n": (int, 3)},
        "restrict": {**_P, "--n": (int, 3), "--d": (int, 3), "--j": (int, 1)},
        "tensor": _P,
    }),
    "ulrich": ("matrix factorizations", cmd_ulrich, {
        "rank1": _A, "rank2": _A, "partner": _C_DEG, "trace": _C_DEG,
    }),
    "ext": ("graded extension spaces", cmd_ext, {
        "dims": {**_A, "--m": (shifts, "-2,-1,0,1")}, "basis": {**_A, "--m": (int, REQUIRED)},
        "class": _C,
    }),
    "verify": ("acceptance battery", cmd_verify, {"all": {"--p": (int, None)}}),
}

_HELP = {
    "--p": "field modulus (verify: restrict prime-parameterized sweeps to F_p)",
    "--lambda-sign": "minus: f = x0^3+x1^3+x2^3 - lambda*x0x1x2; plus negates lambda",
    "--m": "shift(s), comma-separated; use --m=-1 for negative values",
    "--C": "JSON 3x3 array of forms of degree --deg (ext class: linear forms)",
}


@cache  # parsing reads the parser and leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesse-moore",
        description="Moore-matrix determinantal representations of Hesse cubics",
    )
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)
    for group, (group_help, handler, actions) in OPTIONS.items():
        group_parser = groups.add_parser(group, help=group_help)
        group_parser.set_defaults(handler=handler)
        subs = group_parser.add_subparsers(dest="action", required=True)
        for action, options in actions.items():
            sp = subs.add_parser(action, allow_abbrev=False)
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
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            raise UsageError(f"unrecognized arguments: {' '.join(unread)}")
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
