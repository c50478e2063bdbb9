"""Command-line surface: parsing, output formats, exit codes, determinism."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurvar import cli, polygon_convexity
from schurvar.cli import parse_complex, parse_domain, run


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("3i", 3j),
        ("-0.5i", -0.5j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("1.5e-3+2e-4i", 1.5e-3 + 2e-4j),
        (" 1 + 2i ", 1 + 2j),
        ("1 2", 12 + 0j),  # whitespace is stripped before matching
        ("2.5e2", 250 + 0j),
        (".5i", 0.5j),
    ],
)
def test_parse_complex_accepts(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "i", "1+i", "bogus", "1+2j", "++1", "2+"])
def test_parse_complex_rejects(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex(text)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _readme_examples():
    """(command, output) of every README example whose full output is shown."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    return [
        (cmd[len("$ schurvar "):], out)
        for cmd, out in zip(lines, lines[1:])
        if cmd.startswith("$ schurvar ") and not cmd.endswith("\\") and out and "..." not in out
    ]


@pytest.mark.parametrize("example", _readme_examples(), ids=lambda e: e[0].split()[0])
def test_readme_example_output_is_current(capsys, example):
    command, output = example
    code, out, _ = capture(capsys, shlex.split(command))
    assert code == 0
    assert out == output + "\n"


def test_readme_examples_found():
    assert [c.split()[0] for c, _ in _readme_examples()] == [
        "schur", "extremal", "compare-gronwall", "membership", "h-check",
    ]


def test_readme_python_blocks_run():
    # Later blocks use names imported by earlier ones, as a reader
    # running them in one session would.
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["res"].is_region


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_parse_complex_roundtrip(a, b):
    sign = "+" if b >= 0 else "-"
    text = f"{a!r}{sign}{abs(b)!r}i"
    assert parse_complex(text) == complex(a, abs(b) if b >= 0 else -abs(b))


def test_parse_domain_forms():
    assert parse_domain("halfplane").kind == "halfplane"
    spec = parse_domain("janowski:A=2,B=-1")
    assert spec.kind == "janowski"
    for bad in ("janowski:A", "halfplane:", ":k=1", "janowski:A=x"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_domain(bad)


def test_schur_subcommand_json(capsys):
    code, out, _ = capture(capsys, ["schur", "--data", "0.5,0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "interior"
    assert payload["gamma"] == [[0.5, 0.0], [2 / 3, 0.0]]


def test_schur_subcommand_inf_encoding(capsys):
    code, out, _ = capture(capsys, ["schur", "--data", "1,0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "exterior"
    assert payload["gamma"][1] == "inf"


def test_region_json_shape(capsys):
    code, out, _ = capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "0,0.3",
         "--j", "-1", "--z0", "0.5", "--samples", "16"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "region"
    assert payload["j"] == -1
    assert payload["z0"] == [0.5, 0.0]
    assert len(payload["points"]) == 16
    assert all(len(row) == 3 for row in payload["points"])


def test_region_csv_matches_json(capsys):
    argv = ["region", "--domain", "halfplane", "--data", "0,0.3",
            "--j", "-1", "--z0", "0.5", "--samples", "16"]
    _, json_out, _ = capture(capsys, argv)
    code, csv_out, _ = capture(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = csv_out.split("\n")
    assert lines[0] == "theta,re,im"
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 16
    # %.17g round-trips doubles exactly, so the CSV must reproduce the
    # JSON payload to the last bit.
    points = json.loads(json_out)["points"]
    for row, (theta, re_, im) in zip(rows, points):
        assert float(row[0]) == theta
        assert float(row[1]) == re_
        assert float(row[2]) == im


def test_region_svg_structure(capsys):
    argv = ["region", "--domain", "halfplane", "--data", "0,0.3",
            "--j", "-1", "--z0", "0.5", "--samples", "16"]
    _, json_out, _ = capture(capsys, argv)
    code, svg_out, _ = capture(capsys, argv + ["--format", "svg"])
    assert code == 0
    assert svg_out.startswith("<svg ")
    assert svg_out.count("<polygon ") == 1
    assert 'fill="none"' in svg_out and 'stroke="black"' in svg_out
    # The vertical axis is flipped for screen coordinates.
    first = json.loads(json_out)["points"][0]
    pts_attr = svg_out.split('points="', 1)[1].split('"', 1)[0]
    x0, y0 = (float(v) for v in pts_attr.split(" ")[0].split(","))
    assert abs(x0 - first[1]) <= 1e-8
    assert abs(y0 + first[2]) <= 1e-8


def test_region_degenerate_falls_back_to_json(capsys):
    code, out, err = capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "1,0",
         "--j", "0", "--z0", "0.5", "--format", "csv"],
    )
    assert code == 0
    assert json.loads(out)["variant"] == "single_point"
    assert "csv" in err


def test_region_empty_variant_exit_zero(capsys):
    code, out, _ = capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "1,0.5",
         "--j", "-1", "--z0", "0.5"],
    )
    assert code == 0
    assert json.loads(out) == {"variant": "empty"}


def test_region_out_file(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    argv = ["region", "--domain", "halfplane", "--data", "0,0.3",
            "--j", "-1", "--z0", "0.5", "--samples", "16",
            "--format", "csv", "--out", str(target)]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    text = target.read_text()
    assert text.startswith("theta,re,im\n")
    assert text.count("\n") == 17


def test_extremal_subcommand(capsys):
    code, out, _ = capture(
        capsys,
        ["extremal", "--domain", "halfplane", "--gamma", "0.3,0.1",
         "--eps", "1", "--order", "5"],
    )
    assert code == 0
    coeffs = json.loads(out)["coefficients"]
    assert len(coeffs) == 6
    assert coeffs[0] == [0.0, 0.0]
    assert coeffs[1] == [1.0, 0.0]
    assert abs(coeffs[2][0] - 0.3) <= 1e-14


def test_compare_gronwall_subcommand(capsys):
    code, out, _ = capture(
        capsys, ["compare-gronwall", "--z0", "0.6", "--lambda", "0.3", "--samples", "64"]
    )
    assert code == 0
    assert json.loads(out)["hausdorff"] <= 1e-9


def test_compare_gronwall_boundary_data_exits_two(capsys):
    # lambda < 1 passes gronwall_curve, but within 1e-12 of 1 the data
    # (0, lambda) classifies as boundary: a usage error, not a failure.
    code, out, err = capture(
        capsys, ["compare-gronwall", "--z0", "0.6", "--lambda", "0.9999999999999", "--samples", "16"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: lambda = 0.9999999999999 lies within 1e-12 of 1")


def test_membership_subcommand(capsys):
    code, out, _ = capture(
        capsys,
        ["membership", "--domain", "halfplane", "--gamma", "0,0.3",
         "--j", "-1", "--z0", "0.45", "--trials", "25", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inside"] == payload["total"] == 25
    assert payload["max_signed_distance"] < 0


def test_membership_without_trials_prints_null_distance(capsys):
    code, out, _ = capture(
        capsys,
        ["membership", "--domain", "halfplane", "--gamma", "0,0.3",
         "--j", "-1", "--z0", "0.45", "--trials", "0", "--seed", "3"],
    )
    assert code == 0
    assert json.loads(out) == {"inside": 0, "total": 0, "max_signed_distance": None}


def test_h_check_subcommand(capsys):
    code, out, _ = capture(
        capsys,
        ["h-check", "--domain", "halfplane", "--j", "1", "--n", "2",
         "--trials", "5", "--seed", "1"],
    )
    assert code == 0
    assert json.loads(out)["max_deviation"] <= 1e-10


def test_h_check_without_trials_prints_null_deviation(capsys):
    code, out, err = capture(
        capsys, ["h-check", "--domain", "halfplane", "--j", "1", "--n", "2", "--trials", "0"]
    )
    assert (code, json.loads(out), err) == (0, {"max_deviation": None}, "")


def test_h_check_negative_trials_exit_two(capsys):
    code, out, err = capture(
        capsys, ["h-check", "--domain", "halfplane", "--j", "1", "--n", "2", "--trials", "-3"]
    )
    assert (code, out, err) == (2, "", "error: trials must be >= 0\n")


_HC = ["h-check", "--domain", "halfplane"]


@pytest.mark.parametrize("argv, message", [
    (_HC + ["--j", "1", "--n", "0", "--trials", "0"], "power must satisfy n >= 1"),
    (_HC + ["--j", "1", "--n", "0", "--trials", "2"], "power must satisfy n >= 1"),
    (_HC + ["--j", "-1", "--n", "2", "--trials", "0"], "transform weight must satisfy j >= 0"),
    (_HC + ["--j", "1", "--n", "2", "--trials", "2", "--seed", "-1"], "seed must be >= 0"),
    (["membership", "--domain", "halfplane", "--gamma", "0,0.3", "--j", "-1", "--z0", "0.5",
      "--trials", "2", "--seed", "-1"], "seed must be >= 0"),
], ids=["n0-no-trials", "n0", "j-1", "h-check-seed", "membership-seed"])
def test_invalid_counts_and_seeds_exit_two_before_any_trial(capsys, argv, message):
    assert capture(capsys, argv) == (2, "", f"error: {message}\n")


def test_h_check_argument_that_underflows_exits_zero(capsys):
    # eps z0^n underflows to 0 at n = 500; H is O(z), so H = 0 there.
    code, out, err = capture(capsys, _HC + ["--j", "1", "--n", "500", "--trials", "20"])
    assert (code, err) == (0, "")
    assert 0 <= json.loads(out)["max_deviation"] <= 1e-10


def test_climbed_value_on_the_rim_exits_one(capsys):
    # The kernel fails near the rim: a computational failure, not a usage error.
    z0 = "-0.9403465207915329+0.3402181956343996i"
    for argv in (
        ["region", "--domain", "halfplane", "--data", "0.9052495005428142+0.42487872540170857i",
         "--j", "0", f"--z0={z0}", "--samples", "8"],
        ["membership", "--domain", "halfplane", "--gamma", "0.9052495005428142+0.42487872540170857i",
         "--j", "0", f"--z0={z0}", "--trials", "3", "--seed", "1"],
    ):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: a tower value rounds onto the rim")
        assert err.endswith(", j = 0, domain halfplane:alpha=0\n")


def test_degenerate_trace_names_its_case(capsys):
    code, out, err = capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "0.5", "--j", "100000", "--z0", "0.5",
         "--samples", "8"],
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: trace degenerate: the point at theta = -2.356194490192345 repeats its "
        "predecessor; z0 = (0.5+0j), j = 100000, domain halfplane:alpha=0\n"
    )


def test_small_endpoint_traces_a_convex_region(capsys):
    # Formed as a difference, the eps-dependent part of P(omega) fell
    # below the rounding of P(gamma_0), and two trace points came out equal.
    # Below |z0| of about 1.1e-308 the plan's bound was NaN, and the plan
    # stopped at its panel cap.
    for data, z0 in (("0.36-0.11i,0.024-0.009i", "1e-8"), ("0", "1e-320")):
        code, out, _ = capture(
            capsys, ["region", "--domain", "halfplane", "--data", data, "--j", "-1", "--z0", z0]
        )
        assert code == 0
        points = [complex(re, im) for _, re, im in json.loads(out)["points"]]
        assert len(set(points)) == 256 and polygon_convexity(points)


_SUBCOMMANDS = next(
    a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_every_subcommand_has_a_handler(capsys, command):
    assert callable(_SUBCOMMANDS[command].get_default("handler"))
    code, out, err = capture(capsys, [command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: schurvar {command} ")


def test_usage_errors_exit_two(capsys):
    assert capture(capsys, ["schur"])[0] == 2
    assert capture(capsys, ["schur", "--data", "bogus"])[0] == 2
    for data in ("0,,0.3", "0.3,", ","):
        code, out, err = capture(capsys, ["schur", "--data", data])
        assert (code, out) == (2, "") and "malformed complex list" in err
    assert capture(
        capsys,
        ["region", "--domain", "parabola", "--data", "0,0.3", "--j", "-1", "--z0", "0.5"],
    )[0] == 2
    assert capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "0,0.3", "--j", "-1", "--z0", "1.5"],
    )[0] == 2
    assert capture(capsys, ["nonsense"])[0] == 2
    code, out, err = capture(
        capsys,
        ["membership", "--domain", "halfplane", "--gamma", "0,0.3",
         "--j", "-1", "--z0", "0.5", "--trials", "-3", "--seed", "1"],
    )
    assert (code, out) == (2, "") and "trials" in err


@pytest.mark.parametrize("argv, message", [
    (["region", "--domain", "halfplane:alpha=-1e999", "--data", "0", "--j", "-1", "--z0", "0.5"],
     "parameter 'alpha' must be finite"),
    (["extremal", "--domain", "halfplane:alpha=-1e999", "--gamma", "0.3", "--eps", "1", "--order", "4"],
     "parameter 'alpha' must be finite"),
    (["extremal", "--domain", "janowski:A=1e999,B=0", "--gamma", "0.3", "--eps", "1", "--order", "4"],
     "parameter 'A' must be finite"),
    (["region", "--domain", "halfplane:alpha=-1e308", "--data", "0", "--j", "-1", "--z0", "0.5"],
     "half-plane order alpha = -1e+308 overflows 1 - 2 alpha, which must be finite"),
])
def test_non_finite_domain_parameters_exit_two(capsys, argv, message):
    # Rejected with the spec, before any map is evaluated: no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert capture(capsys, argv) == (2, "", f"error: {message}\n")


def test_os_errors_exit_one(capsys, tmp_path):
    # The region is computed, then written to a directory that is not there.
    path = tmp_path / "missing" / "x.json"
    code, out, err = capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "0,0.3", "--j", "-1", "--z0", "0.5",
         "--samples", "8", "--out", str(path)],
    )
    assert (code, out) == (1, "") and err.startswith("error: [Errno 2] ")
    assert not path.parent.exists()


def test_memory_errors_exit_one(capsys, monkeypatch):
    # A trace too large for memory is a computational failure, not a crash.
    def too_large(req):
        raise MemoryError("Unable to allocate 1.49 GiB")

    monkeypatch.setattr(cli, "region_compute", too_large)
    code, out, err = capture(
        capsys,
        ["region", "--domain", "halfplane", "--data", "0", "--j", "-1", "--z0", "0.5",
         "--samples", "100000000"],
    )
    assert (code, out, err) == (1, "", "error: Unable to allocate 1.49 GiB\n")


def test_byte_identical_reruns():
    argv = [sys.executable, "-m", "schurvar", "region", "--domain", "halfplane",
            "--data", "0,0.3", "--j", "-1", "--z0", "0.5", "--samples", "16"]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")


SRC = Path(__file__).parents[1] / "src"


def _fresh(*args):
    """A fresh interpreter on this checkout's src/, as a cold launch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _cold_launch(argv):
    """`python -m schurvar *argv` in a fresh interpreter, and the modules
    of numpy and of schurvar it loaded."""
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['schurvar', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('schurvar', run_name='__main__')\n"
        "finally:\n"
        "    print(*sorted(m for m in sys.modules if m.startswith(('numpy', 'schurvar'))), file=sys.stderr)\n"
    )
    proc = _fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return proc, proc.stderr.splitlines()[-1].split()


def test_cold_schur_loads_no_numpy(capsys):
    # Nor any kernel module beyond the Schur recursion and its series.
    argv = ["schur", "--data=0.5,0.2-0.1i,0.3i"]
    proc, modules = _cold_launch(argv)
    assert modules == ["schurvar", "schurvar.cli", "schurvar.schur", "schurvar.series"]
    code, out, _ = capture(capsys, argv)
    assert code == 0 and proc.stdout == out


def test_cold_region_matches_in_process(capsys):
    argv = ["region", "--domain", "sector:beta=0.5", "--data", "0,0.3", "--j", "0",
            "--z0", "0.6+0.2i", "--samples", "16"]
    proc, modules = _cold_launch(argv)
    assert "schurvar.regions" in modules
    assert "schurvar.oracle" not in modules and "schurvar.variability" not in modules
    code, out, _ = capture(capsys, argv)
    assert code == 0 and proc.stdout == out


# Each hides numpy from a fresh interpreter before schurvar is imported.
NUMPY_BLOCKERS = {
    "meta_path finder": (
        "class Hide:\n"
        "    def __init__(self, finders):\n"
        "        self.finders = finders\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'numpy':\n"
        "            return None\n"
        "        specs = (f.find_spec(name, path, target) for f in self.finders)\n"
        "        return next((s for s in specs if s is not None), None)\n"
        "sys.meta_path[:] = [Hide(list(sys.meta_path))]\n"
        "assert importlib.util.find_spec('numpy') is None\n"
    ),
    "None in sys.modules": "sys.modules['numpy'] = None\n",
}


@pytest.mark.parametrize("blocker", sorted(NUMPY_BLOCKERS))
def test_missing_numpy_fails_at_import(blocker):
    # The pure-Python recursion runs; a numpy kernel fails loudly where it
    # imports numpy, at its module or its call, never as an AttributeError.
    probe = (
        "import importlib.util, sys\n"
        + NUMPY_BLOCKERS[blocker]
        + "import schurvar\n"
        "print(schurvar.schur_parameters((0.5, 0.2)).classification.value)\n"
        "try:\n"
        "    from schurvar import region_compute\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
        "try:\n"
        "    schurvar.series_mul(schurvar.ComplexSeries((1, 2)), schurvar.ComplexSeries((3, 4)))\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    proc = _fresh("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "interior\nnumpy\nnumpy\n"
