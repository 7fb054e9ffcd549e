"""Command-line front end: every construction and verification as a
subcommand with canonical JSON output.

Output JSON is deterministic byte-for-byte for fixed inputs (sorted
keys, compact separators); timing goes to standard error so it never
perturbs the payload.  Exit codes: 0 ok, 1 domain error, 2 usage error
(including a required option missing for the chosen action), 3 internal
error (a failed cross-check, reported as {"error": ..., "status":
"internal"}).  Any other exception is a bug and propagates.  `verify
all` exits 3 with "status": "internal" when a check raised ("raised
<Type>: <text>"), else 1 when one failed.  A closed stdout is no error.
The environment variable HESSE_MOORE_SEED fixes the randomness source
used by sampled checks in `verify all`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

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


def _triple(text: str, p: int):
    if text is None:
        raise UsageError("missing a required point/triple option for this action")
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected three comma-separated residues, got {text!r}")
    try:
        values = [int(v) for v in parts]
    except ValueError:
        raise UsageError(f"residues must be integers, got {text!r}") from None
    return tuple(FieldElement(v, p) for v in values)


def _shift(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"--m takes integer shifts, got {text!r}") from None


def _point(text: str, p: int) -> ProjectivePoint:
    return ProjectivePoint(_triple(text, p))


def _curve(args) -> HesseCurve:
    p = args.p
    if args.lam is not None:
        lam = args.lam % p
        if args.lambda_sign == "plus":
            lam = (-lam) % p
        return HesseCurve.from_lambda(lam, p)
    if getattr(args, "a", None):
        return curve_through(_point(args.a, p))
    raise UsageError("need --lambda or --a to determine the curve")


def _sorted_points(points) -> list[list[int]]:
    return sorted(pt.as_ints() for pt in points)


def _parse_matrix(text: str, degree: int, p: int) -> FormMatrix:
    try:
        cells = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"matrix must be JSON (3x3 array of form strings): {exc}")
    if not (
        isinstance(cells, list)
        and len(cells) == 3
        and all(isinstance(r, list) and len(r) == 3 for r in cells)
        and all(isinstance(cell, str) for r in cells for cell in r)
    ):
        raise UsageError("matrix must be a 3x3 array of form strings")
    try:
        forms = [[HomForm.parse(cell, degree, p) for cell in row] for row in cells]
    except (ValueError, IndexError) as exc:
        raise UsageError(f"matrix cells must be forms of degree {degree}: {exc}") from None
    return FormMatrix(forms)


# -- hesse ---------------------------------------------------------------


def cmd_hesse(args):
    action = args.action
    if action == "mul" and args.n is None:
        raise UsageError("mul needs --n")
    # the points are read before the curve is built: a usage error wins
    names = {"add": ("x", "a"), "sub": ("x", "a"),
             "double": ("a",), "triple": ("a",), "mul": ("a",)}
    points = [_point(getattr(args, name), args.p) for name in names.get(action, ())]
    curve = _curve(args)
    if action == "points":
        pts = curve.enumerate_points()
        return {"count": len(pts), "lambda": curve.lam.value, "p": curve.p,
                "points": _sorted_points(pts)}
    if action in ("add", "sub"):
        op = curve.add if action == "add" else curve.sub
        return {"point": op(*points).as_ints()}
    if action in ("double", "triple"):
        op = curve.double if action == "double" else curve.triple
        return {"point": op(*points).as_ints()}
    if action == "mul":
        return {"n": args.n, "point": curve.mul(args.n, *points).as_ints()}
    if action == "torsion3":
        pts = curve.torsion3()
        return {"count": len(pts), "points": _sorted_points(pts)}
    if action == "torsion6":
        pts = curve.torsion6()
        primitive = [
            a for a in pts
            if curve.mul(2, a) != curve.identity and curve.mul(3, a) != curve.identity
        ]
        return {"count": len(pts), "points": _sorted_points(pts),
                "primitive_count": len(primitive)}


# -- moore ---------------------------------------------------------------


def cmd_moore(args):
    a = _triple(args.a, args.p)
    if args.action == "build":
        return {"matrix": moore(a).serialize()}
    if args.action == "det":
        return {"det": moore_det(a).serialize()}
    if args.action == "adjugate":
        return {"adjugate": moore_adjugate(a).serialize()}
    if args.action == "kernel":
        x = _triple(args.x, args.p)
        m = moore_scalar(triple_residues(a)[0], triple_residues(x)[0])
        return {"point": list(left_kernel_mod(m, args.p))}


# -- heis ----------------------------------------------------------------


def cmd_heis(args):
    p = args.p
    if args.action == "orbit":
        orb = heis.orbit(_triple(args.a, p))
        return {"orbit": _sorted_points(orb), "size": len(orb)}
    if args.action == "invariants":
        t = heis.trace_invariants(_triple(args.a, p))
        return {"invariants": list(t)}
    if args.action == "equiv":
        a = _triple(args.a, p)
        a2 = _triple(args.a2, p)
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
            table[str(j)] = {
                f"{g.r},{g.s},{g.t}": chi(g) for g in heis.hn_elements(n)
            }
        return {"n": n, "p": p, "zeta": zeta, "table": table}
    if args.action == "restrict":
        holds = heis.verify_restriction(args.n, args.d, args.j, p)
        return {"n": args.n, "d": args.d, "j": args.j, "holds": holds}
    if args.action == "tensor":
        return {"holds": heis.verify_tensor_h3(p), "p": p}


# -- ulrich ---------------------------------------------------------------


def cmd_ulrich(args):
    p = args.p
    a = _triple(args.a, p)
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
    if args.C is None:
        raise UsageError(f"{args.action} needs --C")
    C = _parse_matrix(args.C, args.deg, p)
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
    a = _triple(args.a, p)
    if args.action == "dims":
        shifts = [_shift(v) for v in args.m.split(",")]
        fac = ulrich_mod.moore_factorization(a)
        return {"dims": {str(m): ext_mod.ext_space(fac, m).quotient_dimension for m in shifts}}
    if args.action == "basis":
        m = _shift(args.m)
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
        if args.C is None:
            raise UsageError("class needs --C")
        C = _parse_matrix(args.C, 1, p)
        return {"class": ext_mod.divergence_class(a, C)}


# -- verify ---------------------------------------------------------------


def cmd_verify(args):
    seed = int(os.environ.get("HESSE_MOORE_SEED", "0"))
    rng = random.Random(seed)
    results = verify_mod.run_all(rng, p=args.p)
    payload = {
        "checks": [
            {"detail": r.detail, "name": r.name, "passed": r.passed}
            for r in results
        ],
        "failed": sum(not r.passed for r in results),
        "passed": sum(r.passed for r in results),
        "seed": seed,
    }
    raised = any(isinstance(r, verify_mod.CheckRaised) for r in results)
    return payload, 3 if raised else int(not all(r.passed for r in results))


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesse-moore",
        description="Moore-matrix determinantal representations of Hesse cubics",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    def common(sp, lam=False, a=False, x=False, a2=False):
        sp.add_argument("--p", type=int, required=True, help="field modulus")
        if lam:
            sp.add_argument("--lambda", dest="lam", type=int, default=None)
            sp.add_argument(
                "--lambda-sign",
                choices=("minus", "plus"),
                default="minus",
                help="sign convention: 'minus' is the internal x0^3+x1^3+x2^3 - lam*x0x1x2;"
                " 'plus' negates lam on the way in",
            )
        if a:
            sp.add_argument("--a", required=False, default=None)
        if x:
            sp.add_argument("--x", default=None)
        if a2:
            sp.add_argument("--a2", default=None)

    hesse = sub.add_parser("hesse", help="curve group law and torsion")
    hesse.add_argument(
        "action",
        choices=("points", "add", "sub", "double", "triple", "mul",
                 "torsion3", "torsion6"),
    )
    common(hesse, lam=True, a=True, x=True)
    hesse.add_argument("--n", type=int, default=None, help="multiplier for mul")
    hesse.set_defaults(handler=cmd_hesse)

    moore_p = sub.add_parser("moore", help="Moore matrices")
    moore_p.add_argument("action", choices=("build", "det", "adjugate", "kernel"))
    common(moore_p, a=True, x=True)
    moore_p.set_defaults(handler=cmd_moore)

    heis_p = sub.add_parser("heis", help="Heisenberg actions and characters")
    heis_p.add_argument(
        "action",
        choices=("orbit", "invariants", "equiv", "characters", "restrict", "tensor"),
    )
    common(heis_p, a=True, a2=True)
    heis_p.add_argument("--n", type=int, default=3)
    heis_p.add_argument("--d", type=int, default=3)
    heis_p.add_argument("--j", type=int, default=1)
    heis_p.set_defaults(handler=cmd_heis)

    ulrich_p = sub.add_parser("ulrich", help="matrix factorizations")
    ulrich_p.add_argument("action", choices=("rank1", "rank2", "partner", "trace"))
    common(ulrich_p, a=True)
    ulrich_p.add_argument("--C", default=None, help="JSON 3x3 array of form strings")
    ulrich_p.add_argument("--deg", type=int, default=1, help="entry degree of --C")
    ulrich_p.set_defaults(handler=cmd_ulrich)

    ext_p = sub.add_parser("ext", help="graded extension spaces")
    ext_p.add_argument("action", choices=("dims", "basis", "class"))
    common(ext_p, a=True)
    ext_p.add_argument("--m", default="-2,-1,0,1",
                       help="shift(s), comma-separated; use --m=-1 for negative values")
    ext_p.add_argument("--C", default=None, help="JSON 3x3 array of linear-form strings")
    ext_p.set_defaults(handler=cmd_ext)

    verify_p = sub.add_parser("verify", help="acceptance battery")
    verify_p.add_argument("action", choices=("all",))
    verify_p.add_argument("--p", type=int, default=None,
                          help="restrict prime-parameterized sweeps to F_p")
    verify_p.set_defaults(handler=cmd_verify)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
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
