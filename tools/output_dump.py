#!/usr/bin/env python3
"""Digest of the CLI's output over a fixed list of argv lists.

    python3 tools/output_dump.py > dump.txt

Runs every argv list of ``ARGVS`` through ``schurvar.cli.run`` in one
process, on the ``src/`` next to this file, and prints one line per list,

    <sha16> <exit code> <argv>

where sha16 is the first 16 hex digits of the sha256 of what the run
wrote to stdout and to stderr, then one line ``<sha16> total`` over all
of them.  The lists cover every subcommand on the catalog maps, each
``region --format``, the single-point and empty variants, exit codes 1
and 2, and inputs that once failed silently or with the wrong code.

To see which outputs a change moves, run it in two exports and diff:

    git archive HEAD~1 | tar -x -C /tmp/a && python3 /tmp/a/tools/output_dump.py > a.txt
    git archive HEAD | tar -x -C /tmp/b && python3 /tmp/b/tools/output_dump.py > b.txt
    diff a.txt b.txt

Each run enters a fresh ``warnings.catch_warnings`` context, so a numpy
warning is shown once, as a cold launch would show it, with its path
relative to ``src/``.  COLUMNS is fixed at 80 so that argparse wraps its
usage text alike everywhere.
"""

import contextlib
import hashlib
import io
import linecache
import os
import shlex
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from schurvar.cli import run  # noqa: E402

MAPS = (
    "halfplane", "halfplane:alpha=0.5", "halfplane:alpha=0.08", "sector:beta=0.5",
    "sector:beta=0.1", "janowski:A=2,B=-1", "janowski:A=-2,B=-1", "janowski:A=1,B=-1",
    "janowski:A=1+0.5i,B=-0.7i", "kucv:k=0.5", "kucv:k=1",
)


def _argvs() -> list[list[str]]:
    out = [
        ["schur", "--data", d]
        for d in ("0.5,0.2-0.1i,0.3i", "0,0.3", "0,1", "0,1.2", "1", "0.5,0.5,0.5,0.5", "0.999999999999")
    ]
    for m in MAPS:
        region = ["region", "--domain", m, "--j", "-1", "--z0", "0.5"]
        out += [region + ["--data", "0,0.3", "--format", f] for f in ("json", "csv", "svg")]
        out += [
            ["region", "--domain", m, "--data", "0.2+0.1i,0.3,-0.1i", "--j", "1", "--z0", "0.8i",
             "--samples", "64"],
            ["region", "--domain", m, "--data", "0.5", "--j", "3", "--z0", "-0.6+0.75i", "--samples", "32"],
            region + ["--data", "0,1", "--format", "csv"],  # single point, emitted as json
            region + ["--data", "0,1.2", "--format", "svg"],  # empty, emitted as json
            ["extremal", "--domain", m, "--gamma", "0.3,-0.2i", "--eps", "1i", "--order", "6"],
            ["membership", "--domain", m, "--gamma", "0,0.3", "--j", "-1", "--z0", "0.5",
             "--trials", "40", "--seed", "1"],
            ["h-check", "--domain", m, "--j", "1", "--n", "2", "--trials", "4", "--seed", "2"],
        ]
    out += [
        ["compare-gronwall", "--z0", "0.5", "--lambda", "0.3", "--samples", "64"],
        ["compare-gronwall", "--z0", "0.7i", "--lambda", "0", "--samples", "32"],
        ["compare-gronwall", "--z0", "0.5", "--lambda", "1"],  # boundary data: exit 2
        ["membership", "--domain", "halfplane", "--gamma", "0,0.3", "--j", "-1", "--z0", "0.5",
         "--trials", "0", "--seed", "1"],
        ["h-check", "--domain", "halfplane", "--j", "1", "--n", "500", "--trials", "3"],
        # Exit 1: computational failures.  The 1e-320 and 1e-8 traces exited 1
        # until their fixes and keep their place.
        ["region", "--domain", "halfplane", "--data", "0", "--j", "-1", "--z0", "1e-320"],
        ["region", "--domain", "halfplane", "--data", "0.9999999,0.00000001", "--j", "3",
         "--z0", "0.9999999999"],
        ["region", "--domain", "halfplane", "--data", "0.36-0.11i,0.024-0.009i", "--j", "-1",
         "--z0", "1e-8"],
        # Exit 2: usage errors.
        ["nonsense"],
        ["schur", "--data", "0,,0.3"],
        ["region", "--domain", "parabola", "--data", "0", "--j", "-1", "--z0", "0.5"],
        ["region", "--domain", "halfplane", "--data", "0", "--j", "-1", "--z0", "1.5"],
        ["region", "--domain", "halfplane", "--data", "0", "--j", "-2", "--z0", "0.5"],
        ["region", "--domain", "halfplane", "--data", "0", "--j", "-1", "--z0", "0.5", "--samples", "4"],
        ["region", "--domain", "halfplane", "--data", "0", "--j", "-1", "--z0", "0.5", "--samples", "8.5"],
        ["region", "--domain", "sector:beta=1.5", "--data", "0", "--j", "-1", "--z0", "0.5"],
        ["region", "--domain", "janowski:A=1,B=1", "--data", "0", "--j", "-1", "--z0", "0.5"],
        ["extremal", "--domain", "halfplane", "--gamma", "0.3", "--eps", "1", "--order", "2"],
        ["membership", "--domain", "halfplane", "--gamma", "0", "--j", "-1", "--z0", "0.5",
         "--trials", "-3", "--seed", "1"],
        # Non-finite domain parameters and the half-plane's rounding of alpha1.
        ["region", "--domain", "halfplane:alpha=-1e999", "--data", "0", "--j", "-1", "--z0", "0.5"],
        ["extremal", "--domain", "halfplane:alpha=-1e999", "--gamma", "0.3", "--eps", "1", "--order", "4"],
        ["extremal", "--domain", "janowski:A=1e999,B=0", "--gamma", "0.3", "--eps", "1", "--order", "4"],
        ["region", "--domain", "halfplane:alpha=-1e308", "--data", "0", "--j", "-1", "--z0", "0.5"],
        ["extremal", "--domain", "halfplane:alpha=0.08", "--gamma", "0.3", "--eps", "1", "--order", "4"],
        # Help text exits 0.
        ["--help"],
        ["region", "--help"],
    ]
    return out


ARGVS = _argvs()


def capture(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        # As a cold launch shows it, but with the path relative to src/,
        # so that two exports of the tree print the same text.
        if line is None:
            line = linecache.getline(filename, lineno)
        name = os.path.relpath(filename, SRC)
        err.write(warnings.formatwarning(message, category, name, lineno, line))

    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        warnings.showwarning = show
        code = run(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def main() -> None:
    os.environ["COLUMNS"] = "80"
    total = hashlib.sha256()
    for argv in ARGVS:
        code, out, err = capture(argv)
        sha = hashlib.sha256(out + b"\0stderr\0" + err).hexdigest()[:16]
        line = f"{sha} {code} {shlex.join(argv)}"
        total.update(line.encode() + b"\n")
        print(line)
    print(f"{total.hexdigest()[:16]} total")


if __name__ == "__main__":
    main()
