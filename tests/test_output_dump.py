"""tools/output_dump.py: its in-process runs print what a cold launch prints."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurvar.cli import _build_parser

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("output_dump", ROOT / "tools" / "output_dump.py")
dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump)


def test_argv_lists_cover_every_subcommand():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert set(sub.choices) <= {argv[0] for argv in dump.ARGVS}
    formats = {argv[argv.index("--format") + 1] for argv in dump.ARGVS if "--format" in argv}
    assert formats == {"json", "csv", "svg"}


@pytest.mark.parametrize("argv, code", [
    # A single point asked for as csv: json on stdout, a note on stderr.
    (["region", "--domain", "kucv:k=1", "--j", "-1", "--z0", "0.5", "--data", "0,1", "--format", "csv"], 0),
    (["region", "--domain", "halfplane", "--data", "0.9999999,0.00000001", "--j", "3",
      "--z0", "0.9999999999"], 1),
    (["region", "--domain", "halfplane:alpha=-1e999", "--data", "0", "--j", "-1", "--z0", "0.5"], 2),
])
def test_capture_matches_a_cold_launch(argv, code):
    assert argv in dump.ARGVS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cold = subprocess.run([sys.executable, "-m", "schurvar", *argv], capture_output=True, env=env,
                          timeout=120)
    assert cold.returncode == code and cold.stderr
    assert dump.capture(argv) == (cold.returncode, cold.stdout, cold.stderr)


def test_half_plane_alpha1_rounds_once():
    argv = ["extremal", "--domain", "halfplane:alpha=0.08", "--gamma", "0.3", "--eps", "1", "--order", "4"]
    code, out, err = dump.capture(argv)
    assert (code, err) == (0, b"")
    assert out.startswith(b'{"coefficients": [[0.0, 0.0], [1.0, 0.0], [0.276, 0.0], ')
