#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that

1. an untraced run passes its gates and prints every end-to-end metric
   of BENCHMARK.json, by name and with its unit;
2. two traced runs with the same seed print every per-layer metric with
   its unit, and their exact counts are identical;
3. a run with one deliberately corrupted answer reports it in ``failed``
   and in ``fail_ratio``, which shows the output gate catches it.

Exits 1 and lists the problems if any check fails.  Takes about a minute.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_COUNTS = (
    "quadrature.calls",
    "quadrature.evals_per_call.r05",
    "quadrature.evals_per_call.r08",
    "quadrature.evals_per_call.r095",
    "schur.tower_eval.calls",
    "schur.mobius_eval.calls",
    "domains.eval.calls",
    "series.compose.calls",
)


def _run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _printed(lines, name, unit):
    """Value of 'metric <name> = <value> <unit>' in the human-readable lines."""
    pat = re.compile(rf"^metric {re.escape(name)} = (\S+) {re.escape(unit)}( |$)")
    for line in lines:
        m = pat.match(line)
        if m:
            return float(m.group(1))
    return None


def _check_metrics(problems, label, result, lines, specs):
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            problems.append(f"{label}: {name} [{unit}] missing from the result, got {got}")
        elif _printed(lines, name, unit) is None:
            problems.append(f"{label}: {name} [{unit}] not printed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        result, lines = _run(workload, 0)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: untraced run failed {result['failed']} of {result['attempted']}")
        _check_metrics(problems, f"{workload} --trace 0", result, lines, spec["end_to_end"])

        first, lines = _run(workload, 1)
        second, _ = _run(workload, 1)
        _check_metrics(problems, f"{workload} --trace 1", first, lines, spec["per_layer"])
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between two runs of one seed: {a} vs {b}")

        bad, lines = _run(workload, 0, "--corrupt")
        ratio = _printed(lines, "fail_ratio", "ratio")
        if bad["correct"] or bad["failed"] < 1 or not ratio:
            problems.append(f"{workload}: corrupted answer not caught (failed={bad['failed']}, fail_ratio={ratio})")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("PROBLEM", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
