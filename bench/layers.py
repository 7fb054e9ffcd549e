"""Layer rows: direct, untraced calls into public functions at the
parameters of the ROADMAP baseline table, and cold CLI start-up.

Each row is a median over repeated calls, and each output is checked
against the integer oracle; both functions return their metrics and a
list with one verdict per checked output.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

COLD_START_SPAWNS = 11
COLD_START_ARGV = ["moore", "kernel", "--p", "13", "--a", "1,2,3", "--x", "1,2,3"]


def _median_time(fn, repeats: int) -> tuple[float, object]:
    """Median seconds of fn() over repeats calls, and the last output."""
    times = []
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def _field_mul_ns(hm, rng) -> float:
    x = hm.FieldElement(rng.randrange(1, 13), 13)
    y = hm.FieldElement(rng.randrange(1, 13), 13)
    n = 100_000

    def loop():
        for _ in range(n):
            x * y

    seconds, _ = _median_time(loop, 5)
    return seconds / n * 1e9


def rows(hm, seed: int) -> tuple[dict[str, tuple[float, str]], list[bool]]:
    rng = random.Random(seed)
    oks = []
    out = {"field.mul_ns": (_field_mul_ns(hm, rng), "ns")}

    ints = [[rng.randrange(13) for _ in range(55)] for _ in range(90)]
    mat = [[hm.FieldElement(v, 13) for v in row] for row in ints]
    seconds, (red, pivots) = _median_time(lambda: hm.linalg.rref(mat), 3)
    want, want_pivots = oracle.rref(ints, 13)
    oks.append(pivots == want_pivots and [[c.value for c in r] for r in red[: len(pivots)]] == want)
    out["linalg.rref_90x55_ms"] = (seconds * 1e3, "ms")

    p = 103
    lam = rng.choice([v for v in range(p) if oracle.is_smooth(v, p)])
    pts = oracle.curve_points(lam, p)
    curve = hm.HesseCurve.from_lambda(lam, p)
    a = hm.ProjectivePoint.from_ints(rng.choice(pts), p)
    n = 2**60 + 12345
    seconds, res = _median_time(lambda: curve.mul(n, a), 11)
    acc = curve.identity
    for _ in range(n % len(pts)):
        acc = curve.add(acc, a)
    oks.append(res == acc)
    out["hesse.mul_2p60_ms"] = (seconds * 1e3, "ms")

    base = tuple(hm.FieldElement(v, 13) for v in (1, 2, 3))
    for m, dim in ((0, 1), (1, 0), (2, 0)):
        seconds, space = _median_time(lambda: hm.ext.ext_space(base, m), 3)
        oks.append(space.quotient_dimension == dim)
        out[f"ext.space_m{m}_ms"] = (seconds * 1e3, "ms")

    for p, repeats in ((103, 3), (409, 1)):
        lam = rng.choice([v for v in range(p) if oracle.is_smooth(v, p)])
        seconds, pts = _median_time(
            lambda: hm.HesseCurve.from_lambda(lam, p).enumerate_points(), repeats
        )
        oks.append({tuple(pt.as_ints()) for pt in pts} == set(oracle.curve_points(lam, p)))
        out[f"hesse.enumerate_p{p}_s"] = (seconds, "s")
    return out, oks


def cold_start(src: Path) -> tuple[dict[str, tuple[float, str]], list[bool]]:
    """Median wall time of a CLI subcommand in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    oks = []
    for _ in range(COLD_START_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hesse_moore.cli", *COLD_START_ARGV],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        times.append(time.perf_counter() - start)
        # x = a, so the kernel point is a -_E a, the identity [0:-1:1]
        try:
            oks.append(proc.returncode == 0 and json.loads(proc.stdout)["point"] == [0, 1, 12])
        except (ValueError, KeyError):
            oks.append(False)
    return {"cli.cold_start_ms": (statistics.median(times) * 1e3, "ms")}, oks
