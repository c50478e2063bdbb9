#!/usr/bin/env python3
"""Digest of the library's outputs over a fixed list of calls.

    python3 tools/library_dump.py > dump.txt

Runs every call of ``CASES`` in one process, on the ``src/`` next to
this file, and prints one line per call,

    <sha16> <label>

where sha16 is the first 16 hex digits of the sha256 of what the call
gave: its value, written out exactly (floats in hex, so that -0.0 and
0.0 differ; arrays by dtype, shape and bytes; a returned function by
its values at ``PROBE``), or the type and message of what it raised,
with the estimate, error bound and columns of a ``QuadratureError``;
then any warnings it issued.  The last line is ``<sha16> total`` over
all of them.  The calls run over the eleven maps of
``tools/output_dump.py``: ``eval`` on points (signed zeros among them)
and arrays, ``max_modulus`` (two radii outside [0, 1) among them),
``taylor``, ``alpha1`` and ``alpha2``, ``k_primitive``, ``q_point`` at
tiny, mid and near-rim |z0| (per map kind, one tower bound just inside
and one just outside the margin of the kernel's unguarded map calls),
the three ``region_compute`` variants, real-axis traces with
gamma_0 = 0 (whose imaginary parts are signed zeros),
``cv_region`` under each constraint, the extremal functions,
``h_transform`` and ``membership_trial``, plus the geometry and
closed-form oracles and inputs that must raise.

A change that claims identical library outputs runs it in two exports
and diffs them, as with ``tools/output_dump.py``:

    git archive HEAD~1 | tar -x -C /tmp/a && python3 /tmp/a/tools/library_dump.py > a.txt
    git archive HEAD | tar -x -C /tmp/b && python3 /tmp/b/tools/library_dump.py > b.txt
    diff a.txt b.txt
"""

import cmath
import dataclasses
import enum
import hashlib
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS.parent / "src"))
sys.path.insert(0, str(TOOLS))

import numpy as np  # noqa: E402
from output_dump import MAPS  # noqa: E402

import schurvar  # noqa: E402
from schurvar.cli import parse_domain  # noqa: E402

# Points of the disk, signed zeros first; 1 lies on the rim, so eval raises.
POINTS = (
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e-300 + 0j, -1e-20j,
    1e-8 - 1e-8j, 0.3 + 0j, -0.3 + 0j, 0.5j, 0.2 - 0.6j, -0.7 + 0.1j, 0.9 + 0j, -0.9j,
    0.6 + 0.7j, 0.99 + 0j, -0.999999 + 0j, 0.7070 - 0.7071j, 0.999999999999j, 1 + 0j,
)
PROBE = np.array([0, 0.3, -0.5j, 0.4 + 0.4j, -0.8, 0.95j])
RADII = (0.0, 1e-8, 0.3, 0.5, 0.9, 0.99, 0.999999)
DATA = ((0j,), (0j, 0.3), (0.2 + 0.1j, 0.3, -0.1j), (0.5,))
BOUNDARY = ((1.0,), (0.3, 1j), (0.5, 0.5 - 0.2j, -1.0))
EXTERIOR = ((1.0, 0.5), (0.3, 1.2))
# Point arrays of distinct sizes: signed zeros, a polar grid, a near-rim
# ring and a 2-d block.
ARRAYS = (
    np.array(POINTS[:4]),
    (np.linspace(0.05, 0.95, 8)[:, None] * np.exp(1j * np.linspace(-3, 3, 8))).ravel(),
    (1 - np.logspace(-12, -2, 31)) * np.exp(2j * np.pi * np.arange(31) / 31),
    np.array(POINTS[4:19]).reshape(3, 5),
)


class Call(NamedTuple):
    """name(*args, **kw): a public name of the package, or else an
    attribute of the DomainMap args[0], called on the rest if it is a
    method.  An argument that is itself a Call is made first, inside the
    case, so that a constructor that raises is a case that raises."""

    name: str
    args: tuple
    kw: dict


def call(name, *args, **kw) -> Call:
    return Call(name, args, kw)


def _cases():
    out = []

    def case(name, *args, **kw):
        out.append(call(name, *args, **kw))

    tight = call("QuadratureConfig", abs_tol=1e-13, rel_tol=1e-13)
    failing = call("QuadratureConfig", 1e-300, 1e-300)
    kinds = set()
    for spec in MAPS:
        dom = schurvar.make_domain(parse_domain(spec))
        for z in POINTS:
            case("eval", dom, z)
        for a in ARRAYS:
            case("eval", dom, a)
        for r in RADII + (-0.5, 1.5):  # the last two lie outside [0, 1)
            case("max_modulus", dom, r)
        for order in (0, 3, 8, 24):
            case("taylor", dom, order)
        case("alpha1", dom)
        case("alpha2", dom)
        for z in (0j, 1e-8, 0.3, 0.5j, -0.6 + 0.3j, -0.9, 0.99j, 0.999):
            case("k_primitive", dom, z)
        for data in DATA[:3]:
            for j in (-1, 0, 1, 3):
                for z0 in (1e-8j, 0.5, -0.45 + 0.2j, 0.99 * cmath.exp(1j), 0.999):
                    for eps in (1, 1j, -0.4 + 0.3j):
                        case("q_point", dom, data, j, z0, eps)
        case("q_point", dom, DATA[1], -1, 0.5, 1j, tight)
        # The tower bound of data (0.5,) lies 1.3e-9 and 0.7e-9 inside the
        # rim: just inside the margin within which the kernel skips its own
        # |w| < 1 check, and just outside it.
        if dom.kind not in kinds:
            kinds.add(dom.kind)
            for z0 in (1 - 4e-9, 1 - 2e-9):
                case("q_point", dom, DATA[3], 0, z0, 1)
        # Real-axis traces with gamma_0 = 0: imaginary parts that are +0 or -0.
        for data in DATA[:2]:
            for z0 in (0.5, -0.9):
                for j in (-1, 0, 1):
                    case("region_compute", call("RegionRequest", dom, data, j, z0, samples=16))
        for data, j, z0 in ((DATA[1], -1, 0.5), (DATA[2], 1, 0.8j), (DATA[3], 3, -0.6 + 0.75j)):
            case("region_compute", call("RegionRequest", dom, data, j, z0, samples=64))
        for data in BOUNDARY + EXTERIOR:
            case("region_compute", call("RegionRequest", dom, data, 0, 0.5j, samples=16))
        for prefix in BOUNDARY:
            case("single_point_value", dom, prefix, 2, -0.7)
        for lam, mu in ((0.3, 0.1), (0.2j, -0.05 + 0.1j)):
            case("gamma_from_a2", lam, dom)
            case("gamma_from_a2a3", lam, mu, dom)
        lam1 = dom.alpha1 / 2  # |gamma1| = 1: a single point, or empty
        for constraint in (None, call("FixedA2", 0.3), call("FixedA2", 0.1 - 0.2j),
                           call("FixedA2A3", 0.3, 0.1), call("FixedA2A3", 0.1j, -0.05),
                           call("FixedA2", lam1), call("FixedA2A3", lam1, 0.5)):
            for z0 in (0.5, 0.8j):
                case("cv_region", call("VariabilityQuery", dom, z0, constraint), 32)
        for gamma in ((0.3,), (0.3, -0.2j)):
            for z in (0j, 0.3, -0.6j):
                case("extremal_f_eval", dom, gamma, 1j, z)
            case("extremal_coefficients", dom, gamma, 1j, 6)
        for j, n in ((0, 1), (1, 2), (2, 3)):
            for z in (0.3, -0.5 + 0.5j):
                case("h_transform", dom, j, n, z)
        case("membership_trial", dom, DATA[1], -1, 0.5, 20, 1, samples=32)
        case("membership_trial", dom, DATA[2], 2, 0.7j, 20, 2, samples=32, degrees=(0,),
             inflation=-np.inf)
        for degree in (0, 2):
            case("sample_admissible", dom, DATA[2], degree, 3)

    hp = schurvar.HalfPlane()
    square = np.array([1, 1j, -1, -1j])
    ngon = np.exp(2j * np.pi * np.arange(7) / 7) * (0.5 + 0.2j)
    # Counter-clockwise, clockwise, and one that is not convex.
    for poly in (square, ngon, np.array([0, 1j, 1]), np.array([0, 1, 1 + 1j, 0.2 + 0.1j, 1j])):
        case("polygon_convexity", poly)
        case("polygon_signed_distance", poly, np.array([0, 0.5, 2, 1 + 1j, -3j, 0.99]))
        case("hausdorff", poly, ngon)
    case("polygon_signed_distance", ngon, 0.1j)
    for z0, lam in ((0.5, 0.3), (0.7j, 0.0), (-0.3 + 0.6j, 0.9)):
        case("gronwall_curve_point", z0, lam, 0.7)
        case("gronwall_curve", z0, lam, 16)

    # The Moebius maps' difference form at tiny and near-rim |z0|, with a
    # sector and a conic map at j = 0 as controls.
    for dom in (hp, schurvar.Janowski(2, -1)):
        case("q_point", dom, (0, 0.3), -1, 1e-20, 1)
        case("q_point", dom, (0.9,), 0, 0.999, 1)
    for dom in (schurvar.Sector(0.5), schurvar.ConicSection(1.0)):
        case("q_point", dom, (0, 0.3), 0, 1e-20, 1)
        case("q_point", dom, (0.9,), 0, 0.999, 1)

    # Inputs the library must reject, the quadrature failures included.
    case("q_point", hp, (0, 0.3), 0.5, -0.5, 1)
    case("q_point", hp, (0, 0.3), -2, 0.5, 1)
    case("q_point", hp, (0, 0.3), -1, 1.5, 1)
    case("q_point", hp, (0, 0.3), -1, 0.5, 1.5)
    case("q_point", hp, (0.9999999, 0.00000001), 3, 0.9999999999, 1)
    case("q_point", hp, (0, 0.3), 0, 0.5, 1, failing)
    case("region_compute", call("RegionRequest", hp, (0, 0.3), 0.5, -0.5, samples=8))
    case("membership_trial", hp, (0.3,), 0.5, 0.5, 3, 1)
    case("membership_trial", hp, (0.3,), -1, 0.5, 3, 1, degrees=(1.9,))
    case("membership_trial", hp, (0.3,), -1, 0.5, 3, 1, degrees=())
    case("sample_admissible", hp, (0.3,), 1.5, 0)
    case("sample_admissible", hp, (), 1, 0)
    case("h_transform", hp, 0.5, 2, 0.3)
    case("h_transform", hp, 2, 3, 0.999)
    case("h_transform", hp, 1, 2, 0)
    case("extremal_f_eval", hp, (2.0,), 1, 0)
    case("extremal_f_eval", hp, (0.3,), 5, 0)
    case("extremal_f_eval", hp, (), 1, 0.999)
    case("extremal_f_eval", hp, (0.3,), 1.0, 0.95, failing)
    case("extremal_coefficients", hp, (0.3,), 1, 6.5)
    case("taylor", hp, 2.5)
    case("tower_taylor", call("BlaschkeTower", (0.3,), 1), 2.5)
    case("single_point_value", hp, (1.0,), -5, 5)
    case("single_point_value", hp, (0.3, 1.0), -5, 5)
    case("single_point_value", hp, (), -1, 0.5)
    case("cv_region", call("VariabilityQuery", hp, 1.2, None))
    case("gronwall_curve_point", 0.5, 1.0, 0.7)
    case("k_primitive", hp, 1.0)
    case("QuadratureConfig", float("nan"), 1e-12)
    case("QuadratureConfig", 1e-12, float("inf"))
    case("polygon_convexity", [])
    case("polygon_signed_distance", [], 0.5)
    case("hausdorff", [], [1, 2, 3])
    # A point where libm's pow once rounded a square of the conic kernel
    # off, alone and in an array: the two must give the same bits.
    z = 0.06220119171036783 - 0.2709785694421813j
    case("eval", schurvar.ConicSection(1.0), z)
    case("eval", schurvar.ConicSection(1.0), np.array([z]))
    return out


def make(c: Call):
    """The value of the call c (see Call)."""
    args = [make(a) if isinstance(a, Call) else a for a in c.args]
    kw = {k: make(v) if isinstance(v, Call) else v for k, v in c.kw.items()}
    if c.name in schurvar.__all__:
        return getattr(schurvar, c.name)(*args, **kw)
    attr = getattr(args[0], c.name)
    return attr(*args[1:], **kw) if callable(attr) else attr


CASES = _cases()


def show(value) -> str:
    """An argument as a label shows it: a map by its spec, an array by
    its shape."""
    if isinstance(value, schurvar.DomainMap):
        return value.spec_string()
    if isinstance(value, np.ndarray):
        return f"array{value.shape}"
    if isinstance(value, Call):
        return label(value)
    if dataclasses.is_dataclass(value):
        fields = ", ".join(f"{f.name}={show(getattr(value, f.name))}" for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, tuple):
        return "(" + ", ".join(show(v) for v in value) + ("," if len(value) == 1 else "") + ")"
    return repr(value)


def label(c: Call) -> str:
    return f"{c.name}({', '.join([*map(show, c.args), *(f'{k}={show(v)}' for k, v in c.kw.items())])})"


def exact(value) -> str:
    """The value written out bit for bit."""
    if isinstance(value, np.ndarray):
        return f"ndarray[{value.dtype}]{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, np.generic):
        return f"{type(value).__name__}:{exact(value.item())}"
    if value is None or isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}[{','.join(map(exact, value))}]"
    if dataclasses.is_dataclass(value):
        fields = ",".join(f"{f.name}={exact(getattr(value, f.name))}" for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if callable(value):
        return f"function:{exact(value(PROBE))}"
    text = repr(value)
    if " at 0x" in text:
        raise TypeError(f"no exact form for {type(value).__name__}")
    return text


def outcome(c: Call) -> str:
    """What the call gave, or raised, and what it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = make(c)
        except Exception as exc:
            text = f"raise {type(exc).__name__}: {exc}"
            if isinstance(exc, schurvar.QuadratureError):
                text += f" | {exact(exc.estimate)} {exact(exc.error_bound)} {exact(exc.columns)}"
        else:
            # Outside the try: a value the tool cannot write out stops it.
            text = "value " + exact(value)
    return text + "".join(f"\nwarn {w.category.__name__}: {w.message}" for w in caught)


def main() -> None:
    total = hashlib.sha256()
    for c in CASES:
        sha = hashlib.sha256(outcome(c).encode()).hexdigest()[:16]
        line = f"{sha} {label(c)}"
        total.update(line.encode() + b"\n")
        print(line)
    print(f"{total.hexdigest()[:16]} total")


if __name__ == "__main__":
    main()
