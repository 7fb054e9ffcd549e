import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_ops_s", "unit": "req/s", "better": "higher", "bound": 0.25},
]


def canned(wall, throughput, failed=0):
    return {
        "correct": not failed,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "throughput_ops_s": {"value": throughput, "unit": "req/s"},
        },
    }


def test_summary_counts_wins_and_applies_the_gain_rule():
    parent_wall = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # the change wins nine pairs on wall_s and ties the last one
    change_wall = [8, 9, 10, 11, 12, 13, 14, 15, 16, 19]
    # throughput: higher is better; the change loses every pair by 10 %
    parent = [canned(w, 100.0) for w in parent_wall]
    change = [canned(w, 90.0) for w in change_wall]
    change[3] = canned(11, 90.0, failed=2)
    out = bench_pairs.summarize(parent, change, END_TO_END)

    assert out["pairs"] == 10
    assert out["correct"] is False
    assert out["attempted"] == {"parent": 1000, "change": 1000}
    assert out["failed"] == {"parent": 0, "change": 2}
    wall = out["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 14.5, "q1": 12.25, "q3": 16.75, "min": 10, "max": 19}
    assert wall["change"]["median"] == 12.5
    assert wall["pairs_won_by_change"] == 9
    assert wall["change_vs_parent_median"] == pytest.approx(12.5 / 14.5 - 1)
    assert wall["within_bound"] is True
    # quartiles 4.5 apart against a bound of 0.25 * 14.5, and the
    # change's runs overlap the parent's
    assert wall["unresolved"] is True
    # a gap of 2 against the parent's interquartile range of 4.5
    assert wall["gain"] is False

    tput = out["metrics"]["throughput_ops_s"]
    assert tput["pairs_won_by_change"] == 0
    assert tput["within_bound"] is True
    assert tput["gain"] is False

    # a 30 % throughput loss is past the bound; winning every pair by
    # more than the parent's spread is a gain
    out = bench_pairs.summarize(
        [canned(w, 100.0 + i) for i, w in enumerate(parent_wall)],
        [canned(w - 6, 70.0) for w in parent_wall],
        END_TO_END,
    )
    assert out["metrics"]["throughput_ops_s"]["within_bound"] is False
    assert out["metrics"]["wall_s"]["pairs_won_by_change"] == 10
    assert out["metrics"]["wall_s"]["gain"] is True
    assert out["metrics"]["throughput_ops_s"]["unresolved"] is False

    # winning every pair is no gain when the change fails a larger share
    # of its operations
    out = bench_pairs.summarize(
        [canned(w, 100.0) for w in parent_wall],
        [canned(w / 2, 100.0, failed=int(i == 0)) for i, w in enumerate(parent_wall)],
        END_TO_END,
    )
    assert out["failed"] == {"parent": 0, "change": 1}
    # as wide a spread, but every run of the change is better
    assert out["metrics"]["wall_s"]["unresolved"] is False
    assert out["metrics"]["wall_s"]["pairs_won_by_change"] == 10
    assert out["metrics"]["wall_s"]["gain"] is False

    with pytest.raises(ValueError, match="need two or more pairs"):
        bench_pairs.summarize(parent[:3], change[:2], END_TO_END)


def canned_stderr(p50_kind, ext0, partner):
    summary = {
        "workload": "factorization", "passes": 30, "requests_per_pass": 40,
        "p50_kind": p50_kind, "share_below_p50_kind": 0.45,
        "kinds_ms": {"ext0": ext0, "partner": partner},
    }
    return "a warning line first\n" + json.dumps(summary) + "\n"


def test_run_once_keeps_the_stderr_summary_and_medians_each_kind(monkeypatch, tmp_path):
    # kinds_ms holds [min, median, max] per request kind
    stderrs = iter([
        canned_stderr("ext0", [0.28, 0.30, 0.40], [0.2, 0.41, 0.5]),
        canned_stderr("partner", [0.32, 0.34, 0.44], [0.2, 0.40, 0.5]),
        canned_stderr("ext0", [0.30, 0.32, 0.42], [0.2, 0.43, 0.5]),
    ])
    argvs = []

    def fake_run(argv, cwd, **kwargs):
        argvs.append(argv)
        stdout = "progress\n" + json.dumps(canned(1.0, 40.0)) + "\n"
        return subprocess.CompletedProcess(argv, 0, stdout, next(stderrs))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    runs = [bench_pairs.run_once(tmp_path, "factorization", 23, 30) for _ in range(3)]
    assert argvs[0][1:] == ["bench/run.py", "--workload", "factorization", "--seed", "23",
                            "--seconds", "30", "--trace", "0"]
    assert all(result == canned(1.0, 40.0) for result, _ in runs)
    assert runs[1][1]["kinds_ms"]["ext0"] == [0.32, 0.34, 0.44]
    kinds = bench_pairs.kind_medians([summary for _, summary in runs])
    assert kinds == {
        "p50_kind": ["ext0", "partner", "ext0"],
        "median_ms": {"ext0": 0.32, "partner": 0.41},
    }


@pytest.mark.parametrize("env, writes", [(None, True), ("", True), ("1", False)])
def test_main_records_whether_the_runs_write_bytecode(monkeypatch, capsys, env, writes):
    # the runs inherit the environment, so PYTHONDONTWRITEBYTECODE decides
    if env is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", env)
    metrics = {"setup_s": 0.01, "wall_s": 0.5, "throughput_ops_s": 80.0,
               "latency_p50_ms": 0.2, "peak_rss_mb": 18.0}
    result = {"correct": True, "attempted": 40, "failed": 0,
              "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}
    summary = {"p50_kind": "ext0", "kinds_ms": {"ext0": [0.2, 0.2, 0.3]}}
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: (result, summary))
    assert bench_pairs.main(["--parent", "HEAD~1", "--seed", "34", "--pairs", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["writes_bytecode"] is writes
    assert out["workloads"]["point-scan"]["metrics"]["setup_s"]["pairs_won_by_change"] == 0
