#!/usr/bin/env python3
"""Alternating pairs of benchmark runs on two commits, saved as one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 \\
        --pairs trace:501,502,503 --pairs algebra:521 --out BENCH_22.json

Each side runs from a fresh export of its commit's files (``git archive``
into a temporary directory that is removed afterwards), so the benchmark
sees what is committed and nothing else, and an interrupted run leaves no
checkout registered in the repository.  Pair i of a workload runs

    python3 bench/run.py --workload W --seed S --seconds N --trace 0

on both sides with the pair's seed S and N = BENCHMARK.json's run_seconds,
the parent first in even-numbered pairs and the change first in
odd-numbered ones.  The pairs of all workloads are interleaved: pair 0 of
each workload in the order given, then pair 1, and so on.

The output keeps every run's end-to-end metrics and, per side, their
median and quartiles, with the number of pairs in which the change is
better as BENCHMARK.json defines better.  It is rewritten after every
pair, so an interrupted run keeps the pairs it finished.

Each run also records its minor page faults (``minflt``): ru_minflt of
``resource.getrusage(resource.RUSAGE_CHILDREN)`` read before and after
it.  The count covers the run's whole process tree, not the timed
requests alone: the bench process with the answer gates it runs after
each timed call (most of a trace run's faults), its set-up children
and its cold CLI launches.  Each workload keeps the counts and their
summary per side.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    res["minflt"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    return res


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def _workload_report(runs: dict, end_to_end: list[dict]) -> dict:
    report = {key: {side: [r[key] for r in runs[side]] for side in SIDES}
              for key in ("correct", "attempted", "failed")}
    report["minflt"] = {side: _summary([r["minflt"] for r in runs[side]]) for side in SIDES}
    report["metrics"] = {}
    for m in end_to_end:
        vals = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        report["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"],
            **{side: _summary(vals[side]) for side in SIDES}, "wins": wins,
        }
    return report


def _parse_pairs(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition(":")
    try:
        return workload, [int(s) for s in seeds.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected W:S1,S2,..., got {text!r}") from None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit")
    ap.add_argument("--change", default="HEAD", help="changed commit (default HEAD)")
    ap.add_argument("--pairs", type=_parse_pairs, action="append", required=True,
                    help="W:S1,S2,...: one pair per seed on workload W (repeatable)")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()

    commits = {side: _git("rev-parse", "--short", rev)
               for side, rev in zip(SIDES, (args.parent, args.change))}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
    results = {w: {side: [] for side in SIDES} for w, _ in args.pairs}
    schedule = [(i, w, seeds[i]) for i in range(max(len(s) for _, s in args.pairs))
                for w, seeds in args.pairs if i < len(seeds)]
    report = {
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "change": _git("log", "-1", "--format=%s", args.change),
        "command": "python3 bench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "seed": dict(args.pairs),
        "seconds": seconds,
        "pairs": {},
        "order": "parent first in even-numbered pairs, change first in odd-numbered pairs; "
                 "pair i of every workload ran before pair i + 1 of any",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of one side",
        "wins": "pairs in which the change's value is better than the parent's; "
                "ties count for neither",
        "minflt": "minor page faults of each run's whole process tree (answer gates, set-up "
                  "children and cold CLI launches included), from getrusage(RUSAGE_CHILDREN)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                "OMP_NUM_THREADS=1 (set by bench/run.py)",
        "workloads": {},
        "notes": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            tree.mkdir()
            _export(commits[side], tree)
        for i, workload, seed in schedule:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                res = _run(trees[side], workload, seed, seconds)
                results[workload][side].append(res)
                ops = res["metrics"]["ops_per_s"]["value"]
                print(f"{workload} pair {i} seed {seed} {side}: ops_per_s {ops:.6g} "
                      f"correct {res['correct']}", file=sys.stderr, flush=True)
            report["pairs"][workload] = len(results[workload]["change"])
            report["workloads"][workload] = _workload_report(results[workload], end_to_end)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
