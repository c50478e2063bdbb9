"""The tool that writes every BENCH_<n>.json: wins, summaries, arguments.

``tools/bench_pairs.py`` is not part of the package, so it is imported
from its directory, as ``tests/test_bench_sites.py`` imports
``bench/tracing.py``.
"""

import argparse
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def _run(value: float, minflt: int = 0) -> dict:
    return {"correct": True, "attempted": 10, "failed": 0, "minflt": minflt,
            "metrics": {m["name"]: {"value": value} for m in END_TO_END}}


def test_a_win_is_a_strictly_better_change(tool):
    # Pair by pair the change is higher, equal, lower and higher.
    parent, change = (1.0, 2.0, 3.0, 4.0), (2.0, 2.0, 1.0, 5.0)
    runs = {"parent": [_run(v) for v in parent], "change": [_run(v) for v in change]}
    report = tool._workload_report(runs, END_TO_END)
    assert {m["better"] for m in END_TO_END} == {"higher", "lower"}
    for m in END_TO_END:
        got = report["metrics"][m["name"]]
        # Higher is better: pairs 0 and 3.  Lower is better: pair 2.  The
        # tie in pair 1 counts for neither side.
        assert got["wins"] == (2 if m["better"] == "higher" else 1), m["name"]
        assert got["parent"]["runs"] == list(parent)
        assert got["change"]["runs"] == list(change)
    assert report["correct"] == {"parent": [True] * 4, "change": [True] * 4}


def test_page_faults_are_kept_per_run_and_summarized_per_side(tool):
    runs = {"parent": [_run(1.0, f) for f in (50, 54, 5)],
            "change": [_run(1.0, f) for f in (53, 52)]}
    report = tool._workload_report(runs, END_TO_END)
    assert report["minflt"]["parent"] == {"median": 50, "q1": 27.5, "q3": 52.0, "runs": [50, 54, 5]}
    assert report["minflt"]["change"]["runs"] == [53, 52]
    assert report["minflt"]["change"]["median"] == 52.5


def test_summary_of_one_run(tool):
    assert tool._summary([0.25]) == {"median": 0.25, "q1": 0.25, "q3": 0.25, "runs": [0.25]}


def test_summary_quartiles_are_inclusive(tool):
    got = tool._summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (got["median"], got["q1"], got["q3"]) == (3.0, 2.0, 4.0)


def test_parse_pairs(tool):
    assert tool._parse_pairs("trace:1,2,3") == ("trace", [1, 2, 3])
    with pytest.raises(argparse.ArgumentTypeError, match="trace:1,x"):
        tool._parse_pairs("trace:1,x")
