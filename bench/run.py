#!/usr/bin/env python3
"""Benchmark of the hesse_moore package, built from src/ of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: group-law, point-scan, factorization, battery (workloads.py);
BENCHMARK.json times the first three (README.md says why not battery).
One process runs one workload: a single client in a closed loop, each
request sent only after the previous one returned.  Set-up (import,
input generation, warm-up) is repeated from a fresh import, dealt in
turn to SETUP_GROUPS groups, at least SETUP_REPEATS times per group and
for SETUP_SECONDS; the median of the groups' fastest set-ups is ``setup_s``.
Then whole passes over the workload's fixed request list run, at least
two and until S seconds of pass time have been measured; every output
is checked by an oracle between passes, outside the timed region.
Each request's latency is its fastest over the passes: ``wall_s`` is
their sum over the request list, ``latency_p50_ms`` their median.

With ``--trace 0`` the last line of stdout is the end-to-end result.
With ``--trace 1`` the same untraced passes run, then the layer rows
(layers.py), one pass with spans around the package's public functions
(tracer.py), and cold CLI start-ups; the traced factorization run adds
one traced ``verify all`` through cli.main for the ``verify.*`` and
``cli.main_s`` metrics.  The result holds the per-layer metrics.  A
one-line summary of the latency clusters goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
from tracer import GcMonitor, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "hesse_moore"
SETUP_GROUPS = 3
SETUP_REPEATS = 2
SETUP_SECONDS = 2.0
# the workload whose traced run also traces one ``verify all``
BATTERY_TRACED_WITH = "factorization"


def forget_package() -> None:
    """Drop any earlier import of the package, so that the next starts cold."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def fresh_import():
    """Import the package from src/ of this checkout."""
    forget_package()
    hm = importlib.import_module(PACKAGE)
    if Path(hm.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {hm.__file__}, not from {SRC}")
    return hm


def set_up(name: str, seed: int):
    """Set up SETUP_REPEATS times per group, and more until SETUP_SECONDS
    have been spent, so that a cheap set-up is sampled across a few
    seconds.  Set-ups go to the groups in turn, so each group's samples
    span the whole time; each group counts its fastest set-up, the one
    least slowed by other tenants of the host, as the requests do."""
    groups: list[list[float]] = [[] for _ in range(SETUP_GROUPS)]
    spent = 0.0
    while len(groups[-1]) < SETUP_REPEATS or spent < SETUP_SECONDS:
        for times in groups:
            # collect the previous set-up and package before timing the next
            hm = wl = None
            forget_package()
            gc.collect()
            start = time.perf_counter()
            hm = fresh_import()
            wl = WORKLOADS[name](hm, seed)
            times.append(time.perf_counter() - start)
            spent += times[-1]
    return hm, wl, statistics.median(min(times) for times in groups)


class Passes:
    """Runs passes over a workload's request list and checks the outputs.

    Keeps, per request of the list, its fastest latency over the passes:
    the host shares its cores, so the fastest repetition of a request is
    the one least slowed by other tenants.
    """

    MIN_PASSES = 2

    def __init__(self, wl):
        self.wl = wl
        self.best_ns = [None] * len(wl.requests)
        self.pass_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self._accepted: set = set()

    def run(self) -> int:
        """One pass; returns its duration in ns."""
        outputs = []
        best = self.best_ns
        clock = time.perf_counter_ns
        begin = clock()
        for i, (_, thunk) in enumerate(self.wl.requests):
            start = clock()
            try:
                out = thunk()
            except Exception as exc:  # a raising request counts as failed
                out = exc
            ns = clock() - start
            if best[i] is None or ns < best[i]:
                best[i] = ns
            outputs.append(out)
        elapsed = clock() - begin
        self.pass_ns.append(elapsed)
        self._check(outputs)
        return elapsed

    def run_for(self, seconds: float) -> None:
        """Passes until MIN_PASSES have run and seconds of pass time are spent."""
        while len(self.pass_ns) < self.MIN_PASSES or sum(self.pass_ns) < seconds * 1e9:
            self.run()

    def _check(self, outputs) -> None:
        for i, out in enumerate(outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                continue
            key = self.wl.key(i, out)
            if key is not None and (i, key) in self._accepted:
                continue
            try:
                ok = self.wl.check(i, out)
            except Exception:
                ok = False
            if not ok:
                self.failed += 1
            elif key is not None:
                self._accepted.add((i, key))

    def summary(self, name: str) -> dict:
        """Fastest latencies per request kind and the kind the median falls in."""
        by_kind: dict[str, list[int]] = {}
        for (kind, _), ns in zip(self.wl.requests, self.best_ns):
            by_kind.setdefault(kind, []).append(ns)
        order = sorted(range(len(self.best_ns)), key=self.best_ns.__getitem__)
        mid_kind = self.wl.requests[order[len(order) // 2]][0]
        fastest = min(by_kind[mid_kind])
        below = sum(1 for ns in self.best_ns if ns < fastest)
        return {
            "workload": name,
            "passes": len(self.pass_ns),
            "requests_per_pass": len(self.best_ns),
            "p50_kind": mid_kind,
            "share_below_p50_kind": round(below / len(order), 3),
            "kinds_ms": {
                k: [round(min(v) / 1e6, 3), round(statistics.median(v) / 1e6, 3), round(max(v) / 1e6, 3)]
                for k, v in sorted(by_kind.items())
            },
        }


def end_to_end(passes: Passes, setup_s: float) -> dict[str, tuple[float, str]]:
    wall_s = sum(passes.best_ns) / 1e9
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "throughput_ops_s": (len(passes.best_ns) / wall_s, "req/s"),
        "latency_p50_ms": (statistics.median(passes.best_ns) / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(hm, passes: Passes, seed: int, gc_pass: GcMonitor) -> tuple[dict, list[bool]]:
    metrics, oks = layers.rows(hm, seed)
    tracer = Tracer()
    tracer.install(hm)
    try:
        traced_ns = passes.run()
    finally:
        tracer.remove()
    metrics.update(tracer.metrics())
    metrics["runtime.gc_collections"] = (gc_pass.collections, "count")
    metrics["runtime.gc_s"] = (gc_pass.ns / 1e9, "s")
    untraced_ns = statistics.median(passes.pass_ns[:-1])
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    cold, cold_oks = layers.cold_start(SRC)
    metrics.update(cold)
    return metrics, oks + cold_oks


def traced_battery(hm, seed: int) -> tuple[dict, list[bool]]:
    """verify.<check>_s and cli.main_s from one traced ``verify all``
    through cli.main, checked by the battery's oracle."""
    battery = WORKLOADS["battery"](hm, seed)
    tracer = Tracer()
    tracer.install(hm)
    try:
        out = battery.requests[0][1]()
        ok = battery.check(0, out)
    except Exception:  # a raising battery counts as failed
        ok = False
    finally:
        tracer.remove()
    metrics = {
        k: v for k, v in tracer.metrics().items() if k.startswith("verify.") or k == "cli.main_s"
    }
    return metrics, [ok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        hm, wl, setup_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2

    passes = Passes(wl)
    oks: list[bool] = []
    if args.trace:
        with GcMonitor() as gc_pass:
            passes.run()
        passes.run_for(args.seconds)
        metrics, oks = per_layer(hm, passes, args.seed, gc_pass)
        if args.workload == BATTERY_TRACED_WITH:
            battery, battery_oks = traced_battery(hm, args.seed)
            metrics.update(battery)
            oks += battery_oks
    else:
        passes.run_for(args.seconds)
        metrics = end_to_end(passes, setup_s)
    print(json.dumps(passes.summary(args.workload)), file=sys.stderr)

    failed = passes.failed + oks.count(False)
    result = {
        "correct": failed == 0,
        "attempted": passes.attempted + len(oks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
