import importlib.util
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
