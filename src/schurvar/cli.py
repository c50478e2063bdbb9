"""Command-line front end.

Subcommands: schur, region, extremal, compare-gronwall, membership,
h-check.  Each subparser names its handler with set_defaults(handler=...);
the handler takes the parsed namespace, with --domain already built into
a map, and returns its JSON payload as a dict, or the text of a region
trace exported as CSV or SVG.  run alone writes that result, to stdout
or --out, and maps failures to exit codes; diagnostics go to stderr.
Output is byte-identical across runs for identical argv: every random
draw is seeded and all formatting is fixed.

Only the Schur recursion is imported with this module: each handler
imports the kernel modules it runs when it runs, so a cold ``schur``
launch compiles neither the quadrature nor the region code.  Four
kernels, region_compute, q_point, membership_trial and
extremal_coefficients, are still cli attributes, because
bench/tracing.py wraps them where cli looks them up; each is a stub
that imports its module when called.

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
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .schur import _TOL_UNIT, INF, schur_parameters

if TYPE_CHECKING:
    from .domains import DomainSpec
    from .regions import RegionResult

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
    parts = text.split(",")
    if any(p.strip() == "" for p in parts):
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
    from .domains import DomainSpec

    return DomainSpec(kind=kind, params=params)


def _c2j(v: complex) -> list[float]:
    return [v.real, v.imag]


def _region_json(res: RegionResult) -> dict:
    if res.is_empty:
        return {"variant": "empty"}
    if res.is_single_point:
        return {"variant": "single_point", "w0": _c2j(res.w0)}
    poly = res.polygon
    rows = [
        [th, p.real, p.imag] for th, p in zip(poly.thetas, poly.points)
    ]
    return {
        "variant": "region",
        "j": poly.j,
        "z0": _c2j(poly.z0),
        "points": rows,
    }


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
    p.set_defaults(handler=_schur)

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
    p.set_defaults(handler=_region)

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
    p.set_defaults(handler=_extremal)

    p = sub.add_parser(
        "compare-gronwall",
        help="Hausdorff distance between the closed-form half-plane "
        "curve and the engine trace",
    )
    p.add_argument("--z0", type=parse_complex, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--samples", type=int, default=720)
    p.set_defaults(handler=_compare_gronwall)

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
    p.set_defaults(handler=_membership)

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
    p.set_defaults(handler=_h_check)

    return ap


def run(argv: Sequence[str]) -> int:
    """Run the CLI on argv (no program name); returns the exit code.

    The one place that builds the --domain map, writes a handler's result
    and turns a failure into its exit code: ValueError 2, any other 1.
    """
    ap = _build_parser()
    try:
        ns = ap.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if "domain" in ns:
            from .domains import make_domain

            ns.domain = make_domain(ns.domain)
        text = ns.handler(ns)
        if not isinstance(text, str):
            text = json.dumps(
                text, ensure_ascii=False, allow_nan=False, separators=(", ", ": ")
            ) + "\n"
        if getattr(ns, "out", None) is None:
            sys.stdout.write(text)
        else:
            with open(ns.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (ValueError, RuntimeError, ZeroDivisionError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    return 0


# Lookup sites of bench/tracing.py (see the module docstring).
def region_compute(*args, **kwargs):
    from .regions import region_compute
    return region_compute(*args, **kwargs)


def q_point(*args, **kwargs):
    from .regions import q_point
    return q_point(*args, **kwargs)


def membership_trial(*args, **kwargs):
    from .oracle import membership_trial
    return membership_trial(*args, **kwargs)


def extremal_coefficients(*args, **kwargs):
    from .variability import extremal_coefficients
    return extremal_coefficients(*args, **kwargs)


def _schur(ns: argparse.Namespace) -> dict:
    sp = schur_parameters(ns.data)
    return {
        "gamma": ["inf" if v is INF else _c2j(complex(v)) for v in sp.gamma],
        "classification": sp.classification.value,
    }


def _region(ns: argparse.Namespace) -> dict | str:
    from .regions import RegionRequest

    req = RegionRequest(
        domain=ns.domain,
        data=ns.data,
        j=ns.j,
        z0=ns.z0,
        samples=ns.samples,
    )
    res = region_compute(req)
    if res.is_region and ns.format == "csv":
        return _emit_csv(res)
    if res.is_region and ns.format == "svg":
        return _emit_svg(res)
    if ns.format != "json":
        print(
            f"note: {res.kind} result has no {ns.format} form; "
            "emitting json",
            file=sys.stderr,
        )
    return _region_json(res)


def _extremal(ns: argparse.Namespace) -> dict:
    coeffs = extremal_coefficients(ns.domain, ns.gamma, ns.eps, ns.order)
    return {"coefficients": [_c2j(c) for c in coeffs]}


def _compare_gronwall(ns: argparse.Namespace) -> dict:
    # No --domain: the closed-form curve is the half-plane's, alpha = 0.
    from .domains import HalfPlane
    from .oracle import gronwall_curve
    from .regions import hausdorff
    from .variability import FixedA2, VariabilityQuery, cv_region

    _, curve = gronwall_curve(ns.z0, ns.lam, ns.samples)
    res = cv_region(VariabilityQuery(HalfPlane(), ns.z0, FixedA2(ns.lam)), ns.samples)
    if not res.is_region:
        # gronwall_curve takes every lambda < 1; schur_parameters reads the
        # band |lambda - 1| <= _TOL_UNIT as unimodular.
        raise ValueError(
            f"lambda = {ns.lam!r} lies within {_TOL_UNIT:g} of 1, where the "
            "data (0, lambda) is boundary data and the trace is a single point"
        )
    return {"hausdorff": hausdorff(curve, res.polygon)}


def _membership(ns: argparse.Namespace) -> dict:
    report = membership_trial(
        ns.domain, ns.gamma, ns.j, ns.z0, ns.trials, ns.seed
    )
    return {
        "inside": report.inside,
        "total": report.total,
        # An empty run has no distance (-inf is not JSON).
        "max_signed_distance": report.max_signed_distance if report.total else None,
    }


def _h_check(ns: argparse.Namespace) -> dict:
    import numpy as np

    from .oracle import h_transform

    # Checked before the loop, so that no trial count hides them.
    if ns.trials < 0:
        raise ValueError("trials must be >= 0")
    if ns.j < 0:
        raise ValueError("transform weight must satisfy j >= 0")
    if ns.n < 1:
        raise ValueError("power must satisfy n >= 1")
    if ns.seed < 0:
        raise ValueError("seed must be >= 0")
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
        q = q_point(ns.domain, gamma, ns.j, z0, eps)
        lhs = (ns.j + 1) * q / z0 ** (ns.j + 1)
        arg = eps * z0**ns.n
        # H(z) = O(z), so an argument that underflows to 0 has H = 0.
        rhs = h_transform(ns.domain, ns.j, ns.n, arg) if arg else 0j
        worst = max(worst, abs(lhs - rhs))
    # No trial, no deviation (as membership prints no distance).
    return {"max_deviation": worst if ns.trials else None}


def main() -> None:
    sys.exit(run(sys.argv[1:]))
