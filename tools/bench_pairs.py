#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision and a change.

    python3 tools/bench_pairs.py --parent REV [--change REV] --seed N [--pairs 10]

Each side's committed files are exported with ``git archive`` into its
own directory under one temporary directory, removed afterwards, and
``bench/run.py --trace 0`` runs there, so each side runs the benchmark
it commits, from a fresh copy.  ``--change`` defaults to HEAD; every
workload of BENCHMARK.json runs at its run length.  In pair i of a
workload the parent runs first when i is even, the change when i is odd.

The JSON on stdout holds, per workload and end-to-end metric of
BENCHMARK.json, each side's median, quartiles and range, the number of
pairs the change won (a tie counts for neither side), the relative
change of the medians, whether the change's median is within the
metric's bound, whether it is unresolved (a side's quartiles lie
further apart than the bound, and not every run of the change reads
better than every run of the parent), and whether a gain is shown: the
change wins at least nine tenths of the pairs, the medians differ, in
its favour, by more than the distance between the parent's quartiles,
and no larger share of the operations fails than at the parent.
Under "kinds", each side lists the p50_kind of each of its runs and, per
request kind, the median over its runs of that kind's median latency,
from the summary line bench/run.py prints last on stderr.
"writes_bytecode" says whether the runs, which inherit this process's
environment, wrote bytecode for the exported sources (false when
PYTHONDONTWRITEBYTECODE is set); setup_s differs several-fold between
the two, since a set-up without it compiles src/ afresh each time.
Progress goes to stderr.  Standard library only; nothing is written
into the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """Write the files committed at rev into the directory dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced benchmark run in the checkout tree: the result JSON
    that bench/run.py prints last on stdout, and its request-kind
    summary, the line it prints last on stderr (p50_kind, and kinds_ms
    as [min, median, max] per request kind)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1]), json.loads(done.stderr.splitlines()[-1])


def kind_medians(summaries: list[dict]) -> dict:
    """Each run's p50_kind, and per request kind the median over the runs
    of that kind's median latency, from the runs' stderr summaries."""
    kinds = summaries[0]["kinds_ms"]
    return {
        "p50_kind": [s["p50_kind"] for s in summaries],
        "median_ms": {k: statistics.median(s["kinds_ms"][k][1] for s in summaries) for k in kinds},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Compare the runs of pairs (parent[i], change[i]) on each metric of
    end_to_end (BENCHMARK.json's entries: name, unit, better, bound)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two or more pairs, got {len(parent)} and {len(change)} runs")
    pairs = len(parent)
    sides = {"parent": parent, "change": change}
    attempted, failed = (
        {side: sum(r[key] for r in runs) for side, runs in sides.items()}
        for key in ("attempted", "failed")
    )
    # a gain does not count if a larger share of the operations fails
    fail_share = {side: failed[side] / attempted[side] for side in sides}
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        before, after = spread(old), spread(new)
        # gap > 0 and wins count the change's side, whichever way is better
        gap = sign * (before["median"] - after["median"])
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        bound = spec["bound"] * before["median"]
        metrics[name] = {
            "unit": spec["unit"],
            "parent": before,
            "change": after,
            "pairs_won_by_change": wins,
            "change_vs_parent_median": after["median"] / before["median"] - 1,
            "within_bound": -gap <= bound,
            # a spread wider than the bound cannot tell, unless every run
            # of the change reads better than every run of the parent
            "unresolved": (max(s["q3"] - s["q1"] for s in (before, after)) > bound
                           and max(sign * b for b in new) >= min(sign * a for a in old)),
            "gain": (wins >= 0.9 * pairs and gap > before["q3"] - before["q1"]
                     and fail_share["change"] <= fail_share["parent"]),
        }
    return {
        "pairs": pairs,
        "correct": all(run["correct"] for run in parent + change),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision (HEAD)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    out = {"parent": args.parent, "change": args.change, "seed": args.seed,
           "seconds": seconds,
           "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for side, tree in trees.items():
            tree.mkdir()
            export(getattr(args, side), tree)
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            kinds = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result, summary = run_once(trees[side], workload, args.seed, seconds)
                    runs[side].append(result)
                    kinds[side].append(summary)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i} {side}: wall_s {wall:.6f}", file=sys.stderr)
            summary = summarize(runs["parent"], runs["change"], spec["end_to_end"])
            summary["kinds"] = {side: kind_medians(kinds[side]) for side in kinds}
            out["workloads"][workload] = summary
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
