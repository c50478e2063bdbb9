"""Command-line front end.

Subcommands: schur, region, extremal, compare-gronwall, membership,
h-check.  Results go to stdout (or --out) as JSON unless a region
trace is exported as CSV or SVG; diagnostics go to stderr.  Output is
byte-identical across runs for identical argv: every random draw is
seeded and all formatting is fixed.

Exit codes: 0 success (an empty region is a valid answer), 1
computational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from .domains import DomainSpec, make_domain
from .oracle import gronwall_curve, h_transform, membership_trial
from .quadrature import QuadratureError
from .regions import (
    RegionRequest,
    RegionResult,
    hausdorff,
    q_point,
    region_compute,
)
from .schur import INF, schur_parameters
from .variability import extremal_coefficients

__all__ = ["parse_complex", "parse_domain", "run", "main"]

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_FULL = re.compile(rf"^(?P<re>{_NUM})(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$")
_RE_IMAG = re.compile(rf"^(?P<im>{_NUM})i$")
_RE_REAL = re.compile(rf"^(?P<re>{_NUM})$")


def parse_complex(text: str) -> complex:
    """Parse '<real>', '<real>i', or '<real>±<real>i' (i suffix, not j).

    Whitespace-insensitive; scientific notation allowed in either part.
    """
    s = re.sub(r"\s+", "", text)
    m = _RE_FULL.match(s)
    if m:
        return complex(float(m.group("re")), float(m.group("im")))
    m = _RE_IMAG.match(s)
    if m:
        return complex(0.0, float(m.group("im")))
    m = _RE_REAL.match(s)
    if m:
        return complex(float(m.group("re")), 0.0)
    raise argparse.ArgumentTypeError(f"malformed complex number: {text!r}")


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    parts = [p for p in text.split(",")]
    if not parts or any(p.strip() == "" for p in parts):
        raise argparse.ArgumentTypeError(f"malformed complex list: {text!r}")
    return tuple(parse_complex(p) for p in parts)


_DOMAIN_RE = re.compile(r"^(?P<kind>[a-z]+)(?::(?P<params>.*))?$")


def parse_domain(text: str) -> DomainSpec:
    """Parse 'halfplane[:alpha=<r>]', 'sector:beta=<r>',
    'janowski:A=<c>,B=<c>', 'kucv:k=<r>'."""
    s = text.strip()
    m = _DOMAIN_RE.match(s)
    if not m:
        raise argparse.ArgumentTypeError(f"malformed domain spec: {text!r}")
    kind = m.group("kind")
    params: dict[str, complex] = {}
    raw = m.group("params")
    if raw is not None:
        if raw.strip() == "":
            raise argparse.ArgumentTypeError(f"malformed domain spec: {text!r}")
        for item in raw.split(","):
            if "=" not in item:
                raise argparse.ArgumentTypeError(
                    f"malformed domain parameter {item!r} in {text!r}"
                )
            key, _, val = item.partition("=")
            key = key.strip()
            if not key or key in params:
                raise argparse.ArgumentTypeError(
                    f"malformed domain parameter {item!r} in {text!r}"
                )
            params[key] = parse_complex(val)
    return DomainSpec(kind=kind, params=params)


def _c2j(v: complex) -> list[float]:
    return [v.real, v.imag]


def _gamma_json(gamma) -> list:
    return ["inf" if v is INF else _c2j(complex(v)) for v in gamma]


def _json_dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(", ", ": "))


def _emit_json_result(res: RegionResult) -> str:
    if res.is_empty:
        return _json_dumps({"variant": "empty"})
    if res.is_single_point:
        return _json_dumps({"variant": "single_point", "w0": _c2j(res.w0)})
    poly = res.polygon
    rows = [
        [th, p.real, p.imag] for th, p in zip(poly.thetas, poly.points)
    ]
    return _json_dumps(
        {
            "variant": "region",
            "j": poly.j,
            "z0": _c2j(poly.z0),
            "points": rows,
        }
    )


def _emit_csv(res: RegionResult) -> str:
    poly = res.polygon
    lines = ["theta,re,im"]
    for th, p in zip(poly.thetas, poly.points):
        lines.append(f"{th:.17g},{p.real:.17g},{p.imag:.17g}")
    return "\n".join(lines) + "\n"


def _emit_svg(res: RegionResult) -> str:
    poly = res.polygon
    xs = [p.real for p in poly.points]
    ys = [-p.imag for p in poly.points]  # screen y grows downward
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    w = maxx - minx
    h = maxy - miny
    pad_x = 0.025 * (w if w > 0 else max(h, 1.0))
    pad_y = 0.025 * (h if h > 0 else max(w, 1.0))
    vx = minx - pad_x
    vy = miny - pad_y
    vw = w + 2 * pad_x
    vh = h + 2 * pad_y
    stroke = 0.005 * max(vw, vh)
    pts = " ".join(f"{x:.9g},{y:.9g}" for x, y in zip(xs, ys))
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vx:.9g} {vy:.9g} {vw:.9g} {vh:.9g}">\n'
        f'  <polygon points="{pts}" fill="none" stroke="black" '
        f'stroke-width="{stroke:.9g}"/>\n'
        "</svg>\n"
    )


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once: parsing does not change the parser.
    ap = argparse.ArgumentParser(
        prog="schurvar",
        description="Exact variability regions for analytic function "
        "families with prescribed Caratheodory data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="classify Caratheodory data")
    p.add_argument("--data", type=_parse_complex_list, required=True)

    p = sub.add_parser(
        "region",
        help="trace a weighted-integral variability region; degenerate "
        "variants (single point, empty) are emitted as JSON even when "
        "csv/svg was requested",
    )
    p.add_argument("--domain", type=parse_domain, required=True)
    p.add_argument("--data", type=_parse_complex_list, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--z0", type=parse_complex, required=True)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser(
        "extremal", help="Taylor coefficients of an extremal function"
    )
    p.add_argument("--domain", type=parse_domain, required=True)
    p.add_argument(
        "--gamma",
        type=_parse_complex_list,
        required=True,
        help="tower parameters below the structural leading zero",
    )
    p.add_argument("--eps", type=parse_complex, required=True)
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser(
        "compare-gronwall",
        help="Hausdorff distance between the closed-form half-plane "
        "curve and the engine trace",
    )
    p.add_argument("--z0", type=parse_complex, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--samples", type=int, default=720)

    p = sub.add_parser(
        "membership", help="Monte-Carlo membership check of random "
        "admissible integrals against the traced polygon"
    )
    p.add_argument("--domain", type=parse_domain, required=True)
    p.add_argument("--gamma", type=_parse_complex_list, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--z0", type=parse_complex, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser(
        "h-check",
        help="max deviation of the data-free engine integral from the "
        "normalized radial transform over random (z0, eps)",
    )
    p.add_argument("--domain", type=parse_domain, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    return ap


def run(argv: Sequence[str]) -> int:
    """Run the CLI on argv (no program name); returns the exit code."""
    ap = _build_parser()
    try:
        ns = ap.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _dispatch(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, RuntimeError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.command == "schur":
        sp = schur_parameters(ns.data)
        payload = {
            "gamma": _gamma_json(sp.gamma),
            "classification": sp.classification.value,
        }
        _write_out(_json_dumps(payload) + "\n", None)
        return 0

    if ns.command == "region":
        domain = make_domain(ns.domain)
        req = RegionRequest(
            domain=domain,
            data=ns.data,
            j=ns.j,
            z0=ns.z0,
            samples=ns.samples,
        )
        res = region_compute(req)
        if res.is_region and ns.format == "csv":
            text = _emit_csv(res)
        elif res.is_region and ns.format == "svg":
            text = _emit_svg(res)
        else:
            if not res.is_region and ns.format != "json":
                print(
                    f"note: {res.kind} result has no {ns.format} form; "
                    "emitting json",
                    file=sys.stderr,
                )
            text = _emit_json_result(res) + "\n"
        _write_out(text, ns.out)
        return 0

    if ns.command == "extremal":
        domain = make_domain(ns.domain)
        coeffs = extremal_coefficients(domain, ns.gamma, ns.eps, ns.order)
        payload = {"coefficients": [_c2j(c) for c in coeffs]}
        _write_out(_json_dumps(payload) + "\n", None)
        return 0

    if ns.command == "compare-gronwall":
        domain = make_domain(DomainSpec("halfplane", {}))
        _, curve = gronwall_curve(ns.z0, ns.lam, ns.samples)
        req = RegionRequest(
            domain=domain,
            data=(0j, complex(ns.lam)),
            j=-1,
            z0=ns.z0,
            samples=ns.samples,
        )
        res = region_compute(req)
        if not res.is_region:
            print("error: engine trace degenerated", file=sys.stderr)
            return 1
        payload = {"hausdorff": hausdorff(curve, res.polygon)}
        _write_out(_json_dumps(payload) + "\n", None)
        return 0

    if ns.command == "membership":
        domain = make_domain(ns.domain)
        report = membership_trial(
            domain, ns.gamma, ns.j, ns.z0, ns.trials, ns.seed
        )
        payload = {
            "inside": report.inside,
            "total": report.total,
            "max_signed_distance": report.max_signed_distance,
        }
        _write_out(_json_dumps(payload) + "\n", None)
        return 0

    if ns.command == "h-check":
        domain = make_domain(ns.domain)
        rng = np.random.default_rng(ns.seed)
        worst = 0.0
        for _ in range(ns.trials):
            radius = 0.2 + 0.6 * float(rng.uniform())
            angle = 2 * math.pi * float(rng.uniform())
            z0 = radius * cmath.exp(1j * angle)
            er = math.sqrt(float(rng.uniform()))
            ea = 2 * math.pi * float(rng.uniform())
            eps = er * cmath.exp(1j * ea)
            if eps == 0:
                eps = 0.5 + 0j
            gamma = (0j,) * ns.n
            q = q_point(domain, gamma, ns.j, z0, eps)
            lhs = (ns.j + 1) * q / z0 ** (ns.j + 1)
            rhs = h_transform(domain, ns.j, ns.n, eps * z0**ns.n)
            worst = max(worst, abs(lhs - rhs))
        payload = {"max_deviation": worst}
        _write_out(_json_dumps(payload) + "\n", None)
        return 0

    raise ValueError(f"unknown command {ns.command!r}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))
