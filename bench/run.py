#!/usr/bin/env python3
"""schurvar benchmark: one closed-loop client, three workloads.

    python3 bench/run.py --workload trace --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and nowhere else.  Workloads (see ``workloads.py``):

  trace       region_compute and cv_region at 256 samples, |z0| in
              {0.5, 0.8, 0.95}: the paper's main operation.
  membership  membership_trial at tolerance 1e-9, 200 trials per case.
  algebra     Schur recursion + Toeplitz check, extremal series at order
              16 and 64, in-process cli.run and cold CLI launches.

With ``--trace 0`` the workload runs untraced for ``--seconds`` in whole
blocks; every answer is gated after its timed call.

Times are taken at reference speed.  On a host shared with other tenants
the same call slows down by up to 2x, for seconds to minutes at a time,
so raw wall times of two runs of the same code differ by 30%.  After
every request the benchmark times a fixed calibration kernel of its own
(``_reference``: scalar complex arithmetic like the program's integrands,
no schurvar code).  A request's time is its wall time divided by the
median of the 31 nearest kernel times, times the kernel's nominal time
``REF_NS``.  A change to the program moves these figures as it moves
wall time; a slow phase of the host slows the kernel too and cancels.
The raw wall figures (``*.wall``) and the host's speed factor (kernel
median / ``REF_NS``) are printed and saved as well.  The last line of
stdout is one JSON object with the end-to-end metrics:

  ops_per_s   requests (trace, algebra) or trials (membership) per second:
              all work done / the sum of the requests' times
  op_ms_p50   median latency of one request (membership: of one trial,
              the case's time divided by its trials)
  op_ms_p90   90th percentile of the same latencies
  setup_s     fresh interpreter to first timed request (import, input
              generation, warm-up), median of five set-ups, each scaled
              by the kernel timed just before and after it
  peak_rss_mb peak resident memory of the workload process

With ``--trace 1`` the first two blocks run three times (untraced, with
spans, with leaf counters; see ``tracing.py``) and the last line carries
the per-layer metrics instead.  Spans and counters are written to
``bench/results/``.  ``--tiny`` and ``--corrupt`` exist for
``bench/selftest.py``.
"""

import os

# Pin BLAS/OpenMP before numpy is imported here or in any child process.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_RUNS = 5
TRACED_BLOCKS = 2
# Blocks generated in set-up per second of --seconds: about twice what
# the current code completes on a 2-vCPU Xeon, so inputs rarely repeat
# within a run (a faster program cycles through them again).
BLOCKS_PER_SECOND = {"trace": 1.0, "membership": 1.0, "algebra": 1.5}
# Nominal time of _reference(): its median in runs of this benchmark on
# a 2-vCPU Intel Xeon with Python 3.11.  It only sets the scale.
REF_NS = 650_000
# Kernel timings around an execution whose median scales it.
REF_WINDOW = 31


def _reference():
    """Fixed calibration kernel, about REF_NS: a 3-level Moebius tower
    under a sector map at 300 points, in scalar complex arithmetic."""
    g = (0.3 + 0.2j, -0.1 + 0.4j, 0.25j)
    acc = 0j
    for k in range(300):
        z = 0.8 * cmath.exp(0.1j * k) * (k % 15 + 0.5) / 15
        w = 0.7 * z
        for a in g[:0:-1]:
            w = z * ((w + a) / (1 + a.conjugate() * w))
        w = (w + g[0]) / (1 + g[0].conjugate() * w)
        acc += cmath.exp(0.5 * cmath.log((1 + w) / (1 - w))) * abs(w)
    return acc


def _reference_ns():
    t0 = time.perf_counter_ns()
    _reference()
    return time.perf_counter_ns() - t0


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BLOCKS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true", help="falsify one answer before its gate")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _set_up(args):
    """Import the program from src/, generate every input, warm up."""
    sys.path.insert(0, str(SRC))
    import workloads

    prog = workloads.Program(str(SRC))
    if not prog.regions.__file__.startswith(str(SRC)):
        raise SystemExit(f"error: schurvar was imported from {prog.regions.__file__}, not {SRC}")
    n_blocks = max(TRACED_BLOCKS, math.ceil(args.seconds * BLOCKS_PER_SECOND[args.workload]))
    wl = workloads.WORKLOADS[args.workload](prog, args.seed, n_blocks, args.tiny)
    wl.warm_up()
    return prog, wl


def _setup_seconds(args):
    """Median time from spawning a fresh interpreter to 'ready'.

    Returns it at reference speed and the raw wall times.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    scaled, wall = [], []
    for _ in range(SETUP_RUNS):
        refs = [_reference_ns() for _ in range(REF_WINDOW // 2)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit("error: set-up run failed")
        refs += [_reference_ns() for _ in range(REF_WINDOW // 2)]
        wall.append(elapsed)
        scaled.append(elapsed * REF_NS / statistics.median(refs))
    return statistics.median(scaled), wall


def _measure(prog, wl, args):
    """Closed loop over whole blocks until --seconds have passed.

    Returns the executions in time order as (op, wall ns, kernel ns
    after it), and the executions that failed, by reason.  Each answer
    is gated after its timed call; a failed or wrong answer is counted
    and the loop goes on.
    """
    corrupt_left = 1 if args.corrupt else 0
    records, reasons = [], {}
    deadline = time.perf_counter() + args.seconds
    done = 0
    while not done or time.perf_counter() < deadline:
        for op in wl.blocks[done % len(wl.blocks)]:
            t0 = time.perf_counter_ns()
            try:
                out, err = op.run(), None
            except prog.failures as exc:
                out, err = None, exc
            ns = time.perf_counter_ns() - t0
            records.append((op, ns, _reference_ns()))
            if err is None and corrupt_left:
                out, corrupt_left = op.corrupt(out), 0
            reason = f"{type(err).__name__}: {err}" if err is not None else op.check(out)
            if reason is not None:
                label = f"{op.kind}/{op.tag}: {reason}"
                reasons[label] = reasons.get(label, 0) + 1
        done += 1
    return records, reasons


def _scaled_ns(records):
    """Each execution's time at reference speed, in the order of records."""
    refs = [r for _, _, r in records]
    h = REF_WINDOW // 2
    return [ns * REF_NS / statistics.median(refs[max(0, k - h) : k + h + 1])
            for k, (_, ns, _) in enumerate(records)]


def _quantiles(values):
    """(p50, p90) by statistics.quantiles; a single value stands for both."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def _environment():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _end_to_end(wl, records, reasons, setup_s):
    attempted = len(records)
    failed = sum(reasons.values())
    ops = [op for op, _, _ in records]
    work = sum(op.work for op in ops)
    timed = list(zip(ops, _scaled_ns(records)))
    p50, p90 = _quantiles([ns / 1e6 / op.work for op, ns in timed])
    rate = work / (sum(ns for _, ns in timed) / 1e9)
    metrics = {
        "ops_per_s": (rate, "1/s", attempted),
        "op_ms_p50": (p50, "ms", attempted),
        "op_ms_p90": (p90, "ms", attempted),
        "setup_s": (setup_s, "s", SETUP_RUNS),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }

    def kind_ms(kinds, scale=1.0):
        vals = [ns / 1e6 * scale for op, ns in timed if op.kind in kinds]
        return vals, _quantiles(vals) if vals else (0.0, 0.0)

    # The workload's own names for the same and finer figures, and the
    # raw wall-clock figures with the host's speed factor.
    wall_p50, wall_p90 = _quantiles([ns / 1e6 / op.work for op, ns, _ in records])
    named = {
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "ops_per_s.wall": (work / (sum(ns for _, ns, _ in records) / 1e9), "1/s", attempted),
        "op_ms_p50.wall": (wall_p50, "ms", attempted),
        "op_ms_p90.wall": (wall_p90, "ms", attempted),
        "host_speed_factor": (statistics.median(r for _, _, r in records) / REF_NS, "ratio", attempted),
    }
    if wl.name == "trace":
        named["regions_per_s"] = (rate, "1/s", attempted)
        named["region_ms_p50"] = (p50, "ms", attempted)
        named["region_ms_p90"] = (p90, "ms", attempted)
        for tag in ("r05", "r08", "r095"):
            vals = [ns / 1e6 for op, ns in timed if op.kind == "region" and op.tag == tag]
            named[f"region_ms_p50.{tag}"] = (_quantiles(vals)[0], "ms", len(vals))
    elif wl.name == "membership":
        named["trials_per_s"] = (rate, "1/s", attempted)
    else:
        vals, (c50, c90) = kind_ms(("classify",), 1e3)
        named["classify_us_p50"] = (c50, "us", len(vals))
        named["classify_us_p90"] = (c90, "us", len(vals))
        vals, (e50, e90) = kind_ms(("extremal",))
        named["extremal_ms_p50"] = (e50, "ms", len(vals))
        named["extremal_ms_p90"] = (e90, "ms", len(vals))
        vals, (k50, _) = kind_ms(("cli_cold",))
        named["cli_cold_ms_p50"] = (k50, "ms", len(vals))
    return metrics, named, attempted, failed


def _print_metrics(metrics):
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")


def _write(name, payload):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, default=repr)
    return path


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "schurvar" / "__init__.py").is_file():
        print(f"error: no schurvar sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        _set_up(args)
        print("ready", flush=True)
        return 0

    env = _environment()
    print(f"env {json.dumps(env)}")
    if args.trace:
        prog, wl = _set_up(args)
        import tracing

        ops = [op for blk in wl.blocks[:TRACED_BLOCKS] for op in blk]
        layer, failed, dump = tracing.traced_run(prog, wl, ops, prog.failures)
        print(f"workload={wl.name} seed={args.seed} traced requests={len(ops)}")
        for name, (value, unit) in layer.items():
            print(f"metric {name} = {value:.6g} {unit}")
        path = _write(f"spans-{wl.name}-seed{args.seed}.json", {"env": env, "args": vars(args), **dump})
        print(f"spans and counters written to {path.relative_to(ROOT)}")
        result = {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        }
    else:
        setup_s, setup_runs = _setup_seconds(args)
        prog, wl = _set_up(args)
        records, reasons = _measure(prog, wl, args)
        metrics, named, attempted, failed = _end_to_end(wl, records, reasons, setup_s)
        print(f"workload={wl.name} seed={args.seed} requests={attempted} of {sum(map(len, wl.blocks))} "
              "generated, closed loop, 1 client, 1 thread")
        _print_metrics(metrics)
        _print_metrics(named)
        for reason, count in sorted(reasons.items()):
            print(f"FAILED x{count}: {reason}")
        _write(f"{wl.name}-seed{args.seed}.json", {
            "env": env, "args": vars(args), "setup_runs_s": setup_runs,
            "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in {**metrics, **named}.items()},
            "failures": reasons,
        })
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
