"""Command-line surface: parsing, output formats, exit codes, determinism."""

import argparse
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_h_check_subcommand(capsys):
    code, out, _ = capture(
        capsys,
        ["h-check", "--domain", "halfplane", "--j", "1", "--n", "2",
         "--trials", "5", "--seed", "1"],
    )
    assert code == 0
    assert json.loads(out)["max_deviation"] <= 1e-10


def test_usage_errors_exit_two(capsys):
    assert capture(capsys, ["schur"])[0] == 2
    assert capture(capsys, ["schur", "--data", "bogus"])[0] == 2
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


def test_byte_identical_reruns():
    argv = [sys.executable, "-m", "schurvar", "region", "--domain", "halfplane",
            "--data", "0,0.3", "--j", "-1", "--z0", "0.5", "--samples", "16"]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")
