"""The benchmark workloads.

Each workload is built from a seed and the imported package.  Its
constructor is the set-up (input generation and warm-up); afterwards
``requests`` is a fixed list of (kind, thunk) pairs that one pass runs
in order, and ``check(i, output)`` is the oracle for request i, run
outside the timed region.  ``key(i, output)`` gives a canonical form of
an output so that an output already accepted for the same request is
not checked again, or None when every output is checked.

Thunks look up the program's functions when called, not when built, so
that a tracer installed after set-up sees every call.

Request mixes are fixed counts, so every seed runs the same multiset of
request kinds, and they are chosen so that the median latency falls in
the middle of one kind's cluster instead of on the edge between two
kinds (see README.md).
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import oracle


def _smooth_lambdas(rng: random.Random, p: int, count: int) -> list[int]:
    return rng.sample([lam for lam in range(p) if oracle.is_smooth(lam, p)], count)


def _multiples(curve, a, order: int) -> list[tuple[int, ...]]:
    """[k*a for k in range(order)] by repeated kernel addition, as ints."""
    out = [tuple(curve.identity.as_ints())]
    acc = curve.identity
    for _ in range(order - 1):
        acc = curve.add(acc, a)
        out.append(tuple(acc.as_ints()))
    return out


class GroupLaw:
    """Moore-kernel add/sub, closed double/triple and scalar mul on a
    few smooth curves over F_103, with E(F_p) enumerated in set-up."""

    P = 103
    CURVES = 3
    # per pass: the fast closed formulas (26%) sit below the median and
    # mul (2%) above it, so the median is deep inside the add/sub cluster
    MIX = {"add": 360, "sub": 360, "double": 130, "triple": 130, "mul": 20}

    def __init__(self, hm, seed: int):
        rng = random.Random(seed)
        p = self.P
        self.hm = hm
        self.curves = []
        for lam in _smooth_lambdas(rng, p, self.CURVES):
            curve = hm.HesseCurve.from_lambda(lam, p)
            curve.enumerate_points()
            pts = oracle.curve_points(lam, p)
            self.curves.append((lam, curve, pts))
        kinds = [k for k, n in self.MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        self.specs = []
        self.requests = []
        for kind in kinds:
            ci = rng.randrange(len(self.curves))
            lam, curve, pts = self.curves[ci]
            if kind == "triple":
                a = rng.choice([t for t in pts if t[0] * t[1] * t[2]])
            else:
                a = rng.choice(pts)
            x = rng.choice(pts)
            n = rng.getrandbits(60) | (1 << 59)
            self.specs.append((kind, ci, a, x, n))
            self.requests.append((kind, self._thunk(kind, curve, a, x, n)))
        self._tables: dict[tuple, list] = {}

    def _thunk(self, kind, curve, a, x, n):
        pt = self.hm.ProjectivePoint.from_ints
        A, X = pt(a, self.P), pt(x, self.P)
        if kind == "add":
            return lambda: curve.add(X, A)
        if kind == "sub":
            return lambda: curve.sub(X, A)
        if kind == "double":
            return lambda: curve.double(A)
        if kind == "triple":
            return lambda: curve.triple(A)
        return lambda: curve.mul(n, A)

    def key(self, i, out):
        return tuple(out.as_ints())

    def check(self, i, out) -> bool:
        kind, ci, a, x, n = self.specs[i]
        lam, curve, pts = self.curves[ci]
        p = self.P
        r = tuple(out.as_ints())
        if not oracle.on_curve(lam, p, r) or r != oracle.normalize(r, p):
            return False
        A = self.hm.ProjectivePoint.from_ints(a, p)
        if kind == "add":
            return tuple(curve.sub(out, A).as_ints()) == x
        if kind == "sub":
            return tuple(curve.add(out, A).as_ints()) == x
        two = curve.add(A, A)
        if kind == "double":
            return tuple(two.as_ints()) == r
        if kind == "triple":
            return tuple(curve.add(two, A).as_ints()) == r
        if (ci, a) not in self._tables:
            self._tables[ci, a] = _multiples(curve, A, len(pts))
        return self._tables[ci, a][n % len(pts)] == r


class PointScan:
    """Fresh curves over a fixed cycle of primes: enumerate E(F_p),
    E[3] and the 12-line arrangement of E[6]."""

    # an odd number of equally weighted primes puts the median in the
    # middle of the p = 43 cluster
    PRIMES = (19, 31, 43, 61, 79)

    def __init__(self, hm, seed: int):
        rng = random.Random(seed)
        self.hm = hm
        self.specs = [(p, _smooth_lambdas(rng, p, 1)[0]) for p in self.PRIMES]
        self.requests = [(f"p{p}", self._thunk(p, lam)) for p, lam in self.specs]
        self._points: dict[tuple[int, int], list] = {}

    def _thunk(self, p, lam):
        def scan():
            curve = self.hm.HesseCurve.from_lambda(lam, p)
            return curve.enumerate_points(), curve.torsion3(), curve.torsion6_line_arrangement()

        return scan

    def key(self, i, out):
        return None

    def check(self, i, out) -> bool:
        p, lam = self.specs[i]
        pts, t3, t6 = ([tuple(pt.as_ints()) for pt in group] for group in out)
        if (p, lam) not in self._points:
            self._points[p, lam] = oracle.curve_points(lam, p)
        expect = set(self._points[p, lam])
        n = len(pts)
        return (
            n == len(set(pts))
            and set(pts) == expect
            and n % 9 == 0
            and (p + 1 - n) ** 2 <= 4 * p
            and set(t3) == oracle.torsion3(p)
            and all(oracle.on_curve(lam, p, t) for t in t3)
            and set(t6) == {t for t in expect if oracle.line_arrangement(t, p)}
        )


class Factorization:
    """Rank-1/rank-2 factorizations, trace criterion, partner round trips,
    extension spaces and Heisenberg equivalence at non-torsion base points."""

    # every smooth curve over F_7 has only its nine flexes, so F_7 has no
    # non-torsion base points; F_19 takes its place
    PRIMES = (13, 19, 37)
    POINTS_PER_PRIME = 2
    EXT_DIMS = {-2: 0, -1: 3, 0: 1, 1: 0}
    # per pass: 16 requests under 11 ms, then 8 partner round trips
    # (~20 ms), then 16 extension spaces at m = 0 (~35 ms) and m = 1
    # (~250 ms): the median is a partner round trip, with a gap on either
    # side.  Only 3 at m = 1 (one per prime) keep the pass short, so that
    # every request repeats often enough for its fastest run to be steady.
    MIX = {
        "equiv": 3,
        "factorization": 3,
        "ext-2": 2,
        "ext-1": 2,
        "trace": 3,
        "rank2": 3,
        "partner": 8,
        "ext0": 13,
        "ext1": 3,
    }

    def __init__(self, hm, seed: int):
        rng = random.Random(seed)
        self.hm = hm
        self.moore = importlib.import_module(hm.__name__ + ".moore")
        self.bases = []
        # ordered so that the j-th request of every kind uses prime j mod 3
        for _ in range(self.POINTS_PER_PRIME):
            for p in self.PRIMES:
                while True:
                    a = tuple(rng.randrange(1, p) for _ in range(3))
                    lam = (sum(v ** 3 for v in a) * pow(a[0] * a[1] * a[2], p - 2, p)) % p
                    if oracle.is_smooth(lam, p):
                        break
                trip = tuple(hm.FieldElement(v, p) for v in a)
                self.bases.append((p, a, lam, trip, hm.ulrich.moore_factorization(trip)))
        kinds = [k for k, n in self.MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        self.requests = []
        self.specs = []
        seen = dict.fromkeys(self.MIX, 0)
        for kind in kinds:
            base = self.bases[seen[kind] % len(self.bases)]
            spec, thunk = self._make(kind, base, rng, seen[kind])
            seen[kind] += 1
            self.specs.append((kind, base, spec))
            self.requests.append((kind, thunk))

    def _form_matrix(self, p, deg, rng):
        hm = self.hm
        monos = hm.poly.monomials(deg)
        return hm.FormMatrix(
            [
                [
                    hm.HomForm(deg, p, {e: hm.FieldElement(rng.randrange(p), p) for e in monos})
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )

    def _make(self, kind, base, rng, j):
        """Inputs and thunk of the j-th request of this kind."""
        hm = self.hm
        p, a, lam, trip, fac = base
        if kind == "factorization":
            return None, lambda: hm.ulrich.moore_factorization(trip)
        if kind.startswith("ext"):
            m = int(kind[3:])
            return m, lambda: hm.ext.ext_space(trip, m)
        if kind == "rank2":
            return None, lambda: hm.ulrich.rank2_ulrich(trip)
        if kind == "trace":
            C = self._form_matrix(p, j % 3, rng)
            return None, lambda: (
                hm.ulrich.trace_criterion(fac, C),
                hm.ulrich.bcb_divisible(fac, C),
            )
        if kind == "partner":
            # s*M_b + U*A - A*V with b the extension representative and
            # constant U, V satisfies the trace criterion, so D exists
            b = hm.hesse.extension_representative(trip)
            U, V = (self._form_matrix(p, 0, rng) for _ in range(2))
            s = hm.FieldElement(rng.randrange(1, p), p)
            C = self.moore.moore(b).scale(s) + U @ fac.A - fac.A @ V
            return C, lambda: hm.ulrich.recover_C(fac, hm.ulrich.partner_D(fac, C))
        # equiv: a Heisenberg translate of a (rescaled), or another point
        # of the same curve outside the orbit when there is one
        orbit = oracle.heisenberg_orbit(a, p)
        others = [
            t for t in oracle.curve_points(lam, p) if t[0] * t[1] * t[2] and t not in orbit
        ]
        if j % 2 and others:
            a2, expect = rng.choice(others), False
        else:
            a2, expect = rng.choice(sorted(orbit)), True
        scale = rng.randrange(1, p)
        trip2 = tuple(hm.FieldElement(v * scale, p) for v in a2)
        return expect, lambda: hm.heisenberg.are_equivalent(trip, trip2)

    def key(self, i, out):
        return None

    def check(self, i, out) -> bool:
        kind, (p, a, lam, trip, fac), spec = self.specs[i]
        if kind == "factorization":
            A = out.A.entries
            moore_ok = all(
                A[r][c].coeffs == {tuple(int(k == (r - c) % 3) for k in range(3)): trip[(r + c) % 3]}
                for r in range(3)
                for c in range(3)
            )
            return moore_ok and out.f.lam.value == lam
        if kind.startswith("ext"):
            return out.quotient_dimension == self.EXT_DIMS[spec] and out.m == spec
        if kind == "rank2":
            return out.divergence.value == 3
        if kind == "trace":
            return out[0] == out[1]
        if kind == "partner":
            return out == spec
        return out is spec


class Battery:
    """One ``verify all`` through cli.main in-process, stdout captured."""

    CHECK_NAMES = {
        "determinant identity",
        "rank lemma",
        "group law",
        "torsion",
        "equivalence classification",
        "conjugation identities",
        "characters",
        "partner lemma",
        "trace lemma",
        "rank-2 Ulrich blocks",
        "extension dimensions",
        "geometric interpretations",
    }

    def __init__(self, hm, seed: int):
        os.environ["HESSE_MOORE_SEED"] = str(seed)
        self.seed = seed
        self.cli = importlib.import_module(hm.__name__ + ".cli")
        self.requests = [("verify-all", self._verify_all)]

    def _verify_all(self):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.cli.main(["verify", "all"])
        return code, out.getvalue()

    def key(self, i, out):
        return None

    def check(self, i, out) -> bool:
        code, text = out
        payload = json.loads(text)
        return (
            code == 0
            and payload["failed"] == 0
            and payload["seed"] == self.seed
            and {c["name"] for c in payload["checks"] if c["passed"]} == self.CHECK_NAMES
        )


WORKLOADS = {
    "group-law": GroupLaw,
    "point-scan": PointScan,
    "factorization": Factorization,
    "battery": Battery,
}
