"""Variability-region computation and polygon geometry.

The central object is the integral

    Q_{gamma,j}(z0, eps) = int_0^{z0} zeta^j ( P(omega_{gamma,eps}(zeta))
                                               - P(gamma_0) ) d zeta,

taken along the straight segment.  For interior Schur data the exact
variability region of that weighted integral over all admissible
functions is the closed convex set swept by eps over the closed unit
disk, with boundary traced by unimodular eps; for boundary data it
degenerates to a single point (the tower becomes rigid); for exterior
data the region is empty.  region_compute dispatches on the
classification and returns the matching variant, tracing the boundary
on the grid theta_m = -pi + 2 pi m / samples.  Every boundary point is
an integral over the same segment [0, z0], so the whole trace is one
batched quadrature: each G7/K15 panel evaluates all towers at once.

The polygon helpers below (orientation-tolerant convexity check,
inflated containment, symmetric Hausdorff distance against segments)
are the measuring instruments used by the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domains import DomainMap
from .quadrature import QuadratureConfig, QuadratureError, integrate_segment
from .schur import (
    BlaschkeTower,
    Classification,
    schur_parameters,
    tower_eval,
)

__all__ = [
    "RegionRequest",
    "RegionPolygon",
    "RegionResult",
    "theta_grid",
    "q_point",
    "k_primitive",
    "single_point_value",
    "region_compute",
    "polygon_convexity",
    "polygon_signed_distance",
    "polygon_contains",
    "hausdorff",
]


def theta_grid(samples: int) -> tuple[float, ...]:
    """Trace angles theta_m = -pi + 2 pi m / samples, m = 0..samples-1."""
    if samples < 8:
        raise ValueError("samples must be >= 8")
    return tuple(-math.pi + 2 * math.pi * m / samples for m in range(samples))


def _q(
    domain: DomainMap,
    gamma: Sequence[complex],
    j: int,
    z0: complex,
    eps: Sequence[complex] | np.ndarray,
    cfg: QuadratureConfig | None,
) -> np.ndarray:
    """Q_{gamma,j}(z0, eps) for every leaf of the 1-D sequence ``eps``.

    The one integral kernel of the package: every panel evaluates the
    towers of all leaves on its nodes in one array pass.  A quadrature
    failure is re-raised naming the failing leaves, z0 and the domain.
    """
    if j < -1:
        raise ValueError("weight exponent must satisfy j >= -1")
    z0 = complex(z0)
    if not 0 < abs(z0) < 1:
        raise ValueError("z0 must satisfy 0 < |z0| < 1")
    tower = BlaschkeTower(tuple(gamma), eps)
    base = domain.eval(tower.gamma[0])

    def f(zeta: np.ndarray) -> np.ndarray:
        zeta = zeta[:, None]
        return zeta**j * (domain.eval(tower_eval(tower, zeta)) - base)

    try:
        return integrate_segment(f, z0, cfg)
    except QuadratureError as exc:
        bad = tower.epsilon[list(exc.columns)][:4].tolist()
        raise QuadratureError(
            f"{exc}; eps = {bad}, z0 = {z0}, j = {j}, domain {domain.spec_string()}",
            exc.estimate,
            exc.error_bound,
            exc.columns,
        ) from exc


def q_point(
    domain: DomainMap,
    gamma: Sequence[complex],
    j: int,
    z0: complex,
    eps: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """Weighted tower integral Q_{gamma,j}(z0, eps).

    Parameters
    ----------
    domain : DomainMap
    gamma : sequence of complex
        Full finite Schur vector (gamma_0, ..., gamma_n), all moduli < 1.
    j : int
        Weight exponent, j >= -1.  The j = -1 singularity at 0 is
        removable (the integrand stays bounded) and needs no special
        handling because quadrature nodes avoid the origin.
    z0 : complex
        Endpoint, 0 < |z0| < 1.
    eps : complex
        Leaf parameter, |eps| <= 1.
    """
    return complex(_q(domain, gamma, j, z0, [complex(eps)], cfg)[0])


def k_primitive(
    domain: DomainMap, z: complex, cfg: QuadratureConfig | None = None
) -> complex:
    """Primitive K(z) = int_0^z (P(zeta) - P(0)) / zeta d zeta.

    K is the unconstrained-region kernel: the variability region of the
    log-derivative functional over the whole class is K of the closed
    disk of radius |z0|.  K(0) = 0 by the empty contour.  K(eps z) is
    the tower integral Q with data (0,), weight -1 and leaf eps.
    """
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError("argument must satisfy |z| < 1")
    if z == 0:
        return 0j
    return complex(_q(domain, (0j,), -1, z, [1 + 0j], cfg)[0])


def single_point_value(
    domain: DomainMap,
    gamma_prefix: Sequence[complex],
    j: int,
    z0: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """The collapsed region for boundary data: one attainable value.

    ``gamma_prefix`` is (gamma_0, ..., gamma_i) with the last entry
    unimodular: the tower of the leading entries with the rigid leaf
    gamma_i.  For i = 0 the extremal map is a unimodular constant,
    the integrand cancels identically, and the value is exactly 0;
    P is never evaluated there (it may be unbounded at that constant).
    """
    g = [complex(v) for v in gamma_prefix]
    if len(g) == 1:
        return 0j
    return complex(_q(domain, g[:-1], j, z0, [g[-1]], cfg)[0])


@dataclass(frozen=True)
class RegionRequest:
    """What to compute: domain, data, weight, endpoint, trace density."""

    domain: DomainMap
    data: tuple[complex, ...]
    j: int
    z0: complex
    samples: int = 256
    quad: QuadratureConfig | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", tuple(complex(v) for v in self.data))
        z0 = complex(self.z0)
        if not 0 < abs(z0) < 1:
            raise ValueError("z0 must satisfy 0 < |z0| < 1")
        object.__setattr__(self, "z0", z0)
        if self.j < -1:
            raise ValueError("weight exponent must satisfy j >= -1")
        if self.samples < 8:
            raise ValueError("samples must be >= 8")
        if len(self.data) == 0:
            raise ValueError("data must contain at least c_0")


@dataclass(frozen=True)
class RegionPolygon:
    """Traced boundary polygon plus the trace metadata."""

    points: tuple[complex, ...]
    thetas: tuple[float, ...] | None = None
    z0: complex | None = None
    j: int | None = None
    gamma: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))
        if len(self.points) < 3:
            raise ValueError("polygon needs at least 3 points")


@dataclass(frozen=True)
class RegionResult:
    """Tagged result: a traced region, a single point, or empty."""

    kind: str
    schur: "object" = None  # SchurParameters of the input data
    polygon: RegionPolygon | None = None
    w0: complex | None = None

    @staticmethod
    def region(polygon: RegionPolygon, schur=None) -> "RegionResult":
        return RegionResult("region", schur, polygon, None)

    @staticmethod
    def single_point(w0: complex, schur=None) -> "RegionResult":
        return RegionResult("single_point", schur, None, complex(w0))

    @staticmethod
    def empty(schur=None) -> "RegionResult":
        return RegionResult("empty", schur, None, None)

    @property
    def is_region(self) -> bool:
        return self.kind == "region"

    @property
    def is_single_point(self) -> bool:
        return self.kind == "single_point"

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


def region_compute(req: RegionRequest) -> RegionResult:
    """Classify the data and produce the matching region variant.

    Interior data yields the polygon traced over the unimodular leaf
    grid; boundary data the single attainable value; exterior data the
    empty region.  A trace with two consecutive equal points cannot
    happen for valid interior data (the leaf map is injective), so it
    is reported as an error rather than silently returned.
    """
    sp = schur_parameters(req.data)
    if sp.classification is Classification.EXTERIOR:
        return RegionResult.empty(sp)
    if sp.classification is Classification.BOUNDARY:
        prefix = sp.gamma[: sp.boundary_index + 1]
        w0 = single_point_value(req.domain, prefix, req.j, req.z0, req.quad)
        return RegionResult.single_point(w0, sp)
    thetas = theta_grid(req.samples)
    eps = np.exp(1j * np.asarray(thetas))
    pts = _q(req.domain, sp.gamma, req.j, req.z0, eps, req.quad)
    if np.any(pts == np.roll(pts, -1)):
        raise RuntimeError("trace degenerate")
    poly = RegionPolygon(
        points=pts,
        thetas=thetas,
        z0=req.z0,
        j=req.j,
        gamma=sp.gamma,
    )
    return RegionResult.region(poly, sp)


def _points_array(poly) -> np.ndarray:
    if isinstance(poly, RegionPolygon):
        poly = poly.points
    return np.asarray(list(poly), dtype=complex)


def polygon_convexity(poly, tol: float = 1e-9) -> bool:
    """Whether the closed polygon turns consistently one way.

    Cross products of consecutive edges must share a sign; a cross
    smaller in magnitude than tol * (mean edge length)^2 counts as
    zero, which absorbs quadrature noise on nearly-straight stretches.
    """
    p = _points_array(poly)
    e = np.roll(p, -1) - p
    scale = float(np.mean(np.abs(e))) ** 2
    cross = np.imag(np.conj(e) * np.roll(e, -1))
    band = tol * scale
    has_pos = bool(np.any(cross > band))
    has_neg = bool(np.any(cross < -band))
    return not (has_pos and has_neg)


def polygon_signed_distance(poly, w: complex | np.ndarray) -> float | np.ndarray:
    """Signed distance to the polygon: negative inside, positive outside.

    ``w`` is a point (the result is a float) or an array of points (the
    result is a float array of the same shape).  Queries are measured
    in blocks of 32, so the (queries x vertices) temporaries stay small.
    """
    p = _points_array(poly)
    ws = np.asarray(w, dtype=complex)
    e = np.roll(p, -1) - p
    area2 = float(np.sum(np.imag(np.conj(p) * np.roll(p, -1))))
    orient = 1.0 if area2 >= 0 else -1.0
    flat = ws.reshape(-1)
    out = np.empty(flat.shape)
    for i in range(0, len(flat), 32):
        q = flat[i : i + 32]
        cross = np.imag(np.conj(e) * (q[:, None] - p))
        d = _segment_distances(q, p)
        out[i : i + 32] = np.where(np.all(orient * cross >= 0, axis=1), -d, d)
    return float(out[0]) if ws.ndim == 0 else out.reshape(ws.shape)


def polygon_contains(poly, w: complex, tol: float = 1e-6) -> bool:
    """Containment with an inflation band: distance <= tol passes."""
    return polygon_signed_distance(poly, w) <= tol


def _segment_distances(ws: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from each query point to the polygon boundary.

    ws: (n,) complex queries; p: (m,) polygon vertices.  Vectorized over
    all n*m point-segment pairs.
    """
    q = np.roll(p, -1)
    e = q - p
    ee = np.abs(e) ** 2
    ee = np.where(ee == 0, 1.0, ee)
    rel = ws[:, None] - p[None, :]
    t = np.clip(np.real(rel * np.conj(e)[None, :]) / ee[None, :], 0.0, 1.0)
    foot = p[None, :] + t * e[None, :]
    return np.min(np.abs(ws[:, None] - foot), axis=1)


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two polygon boundaries.

    Max over the vertices of one polygon of the distance to the other's
    segments, symmetrized.  Comparing vertex sets against segments (not
    vertices) makes the measure insensitive to parametrization offsets.
    """
    pa = _points_array(a)
    pb = _points_array(b)
    d_ab = float(np.max(_segment_distances(pa, pb)))
    d_ba = float(np.max(_segment_distances(pb, pa)))
    return max(d_ab, d_ba)
