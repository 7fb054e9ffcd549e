#!/usr/bin/env python3
"""Self-check of the benchmark, from the root of the repository:

    python3 bench/smoke.py

Runs every workload for one second on seed 1, untraced and traced, and
asserts that the result line names every metric of BENCHMARK.json with
its unit and that every oracle passed.  Runs every workload once more on
seed 2 and asserts that its shape holds: the same number of requests
per pass and the median in the same latency cluster.  Finally runs
the benchmark in a directory holding only BENCHMARK.json and bench/, and
asserts that it fails without printing a result.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict[str, str], label: str, positive: bool = False) -> dict:
    """Assert the result line; return the latency summary from stderr."""
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{label}: {set(metrics) ^ set(expected)}"
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit {metrics[name]['unit']}"
        assert isinstance(value, (int, float)) and not isinstance(value, bool), label
        assert value > 0 or not positive, f"{label}: {name} = {value}"
    return json.loads(proc.stderr.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in (w["name"] for w in spec["workloads"]):
        shape = check_result(run(ROOT, w, 1, 0), e2e, f"{w} seed 1", positive=True)
        check_result(run(ROOT, w, 1, 1), layer, f"{w} seed 1 traced")
        other = check_result(run(ROOT, w, 2, 0), e2e, f"{w} seed 2", positive=True)
        per_pass = [s["requests_per_pass"] for s in (shape, other)]
        assert per_pass[0] == per_pass[1], f"{w}: requests per pass {per_pass}"
        # kinds of equal cost (add and sub) may swap; the share of faster
        # requests below the median's cluster must not move
        shares = [s["share_below_p50_kind"] for s in (shape, other)]
        assert abs(shares[0] - shares[1]) <= 0.1, f"{w}: {shape} vs {other}"
        print(f"ok {w}: {per_pass[0]} requests per pass, median in "
              f"{shape['p50_kind']} / {other['p50_kind']} above {shares} of them")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 1, 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok without the program: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
