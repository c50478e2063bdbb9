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
batched quadrature: each Gauss panel evaluates all towers at once, on
panels and node counts (10 to 30 per panel) planned from a Schwarz-Pick
bound of the integrand before any tower is evaluated (see _q).

The polygon helpers below (orientation-tolerant convexity check,
signed distance, symmetric Hausdorff distance against segments)
are the measuring instruments used by the test oracles.  The signed
distance assumes a convex polygon, as every traced region is: a query
inside lies at the least of its distances to the edges' supporting
lines, which come from the same cross products as the sign test.
Only queries outside are measured against the clipped segments.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS
from .domains import DomainMap
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureError, _gauss_segment
# integrate_segment and tower_eval stay importable here (bench/tracing.py patches them).
from .quadrature import integrate_segment  # noqa: F401
from .schur import _TOL_UNIT, Classification, _climb, schur_parameters
from .schur import tower_eval  # noqa: F401

__all__ = list(_EXPORTS["regions"])


def _thetas(samples: int) -> np.ndarray:
    """Trace angles theta_m = -pi + 2 pi m / samples, m = 0..samples-1, for an integer samples."""
    samples = operator.index(samples)
    if samples < 8:
        raise ValueError("samples must be >= 8")
    return -np.pi + 2 * np.pi * np.arange(samples) / samples


@functools.lru_cache(maxsize=8)
def _grid(samples: int) -> tuple[tuple[float, ...], np.ndarray]:
    """The trace grid of _thetas(samples): theta as floats and the read-only
    leaves eps = exp(i theta), built once and shared by every trace."""
    thetas = _thetas(samples)
    eps = np.exp(1j * thetas)
    eps.flags.writeable = False
    return tuple(thetas.tolist()), eps


def _weight(j: int) -> int:
    """The weight exponent as an int, checked: j >= -1.  numpy integers
    pass; a float raises TypeError, even an integral one."""
    j = operator.index(j)
    if j < -1:
        raise ValueError("weight exponent must satisfy j >= -1")
    return j


def _q(
    domain: DomainMap,
    gamma: Sequence[complex],
    j: int,
    z0: complex | np.ndarray,
    leaf: Callable[[np.ndarray], np.ndarray],
    cfg: QuadratureConfig | None,
    names: Callable[[tuple[int, ...]], str],
) -> np.ndarray:
    """Q_{gamma,j}(z0, .) for the towers over the leaf self-maps ``leaf``.

    The one integral kernel.  z0 is one endpoint (a point or 0-d array)
    or one endpoint per tower (1-d, extremal_f_eval's nodes).
    ``leaf(zeta)`` maps the panel nodes zeta, shape (N, 1) or (N, m) to
    match, to one column of leaf values per tower, each of modulus at
    most |zeta| (eps zeta for a trace and for the extremal function,
    zeta B(zeta) for membership); every panel climbs all towers in one
    array pass.  The panels are planned first: on |zeta| <= s every
    tower is at most _climb(moduli, s, s) in modulus (Schwarz-Pick), so
    sup(s) below bounds the integrand (for j = -1 by the maximum
    principle, as P(omega) - P(gamma_0) vanishes at 0).  The plan meets
    abs_tol, and so max(abs_tol, rel_tol |Q|).  Inputs are checked
    before the plan.  A tower bound that rounds onto the rim at max |z0|
    raises QuadratureError before anything is evaluated, naming the
    endpoint of largest modulus, j and the domain.  Below 1 the bound
    may still leave a climbed value that rounds onto the rim; that, and
    any other quadrature failure, raises QuadratureError naming z0 (the
    failing endpoints of a 1-d z0), j, the domain and, via ``names``,
    the columns.  ``leaf`` must not write what it reads: a trace's
    leaves are the shared, read-only eps of _grid.
    """
    j = _weight(j)
    z0 = np.asarray(z0, dtype=complex)
    mod = np.abs(z0)
    r = float(mod.max())
    if not (0 < mod.min() and r < 1):
        raise ValueError("z0 must satisfy 0 < |z0| < 1")
    gamma = tuple(complex(v) for v in gamma)
    if not gamma or not all(abs(v) < 1 for v in gamma):
        raise ValueError("tower parameters must be given, each of modulus < 1")
    # |s_a(w)| <= s_|a|(|w|), which grows with |w|: the climb of the moduli
    # from the leaf bound s bounds every tower on |zeta| <= s.
    moduli = tuple(abs(a) for a in gamma)
    if not _climb(moduli, r, r) < 1:
        # Every plan's last panel reaches past |z0|, where sup is infinite.
        raise QuadratureError(
            f"the tower bound rounds onto the rim at |zeta| = {r}, so no plan meets the budget; "
            f"z0 = {z0.flat[np.argmax(mod)]}, j = {j}, domain {domain.spec_string()}",
            complex("nan"), math.inf,
        )
    base = domain.eval(gamma[0])

    def sup(s: float) -> float:
        w = _climb(moduli, s, s)
        if not w < 1:  # rounded onto the rim
            return math.inf
        top = domain.max_modulus(w) + abs(base)
        return top / s if j == -1 else top * s**j

    def f(zeta: np.ndarray) -> np.ndarray:
        w = _climb(gamma, zeta, leaf(zeta))
        try:
            p = domain.eval(w)
        except ValueError as exc:  # the map's guard: a climbed value rounded onto the rim
            rim = tuple(np.flatnonzero(~np.all(np.abs(w) < 1, axis=0)).tolist())
            msg = f"a tower value rounds onto the rim at |zeta| <= {r}"
            raise QuadratureError(msg, complex("nan"), math.inf, rim) from exc
        # zeta^j first: numpy's complex multiply is not bit-symmetric.
        return zeta**j * (p - base)

    try:
        return _gauss_segment(f, z0, sup, (cfg or DEFAULT_CONFIG).abs_tol)[0]
    except QuadratureError as exc:
        at = z0 if z0.ndim == 0 else z0[list(exc.columns)][:4].tolist()
        where = f"{names(exc.columns)}, z0 = {at}, j = {j}, domain {domain.spec_string()}"
        raise exc.with_context(where) from exc


def _q_eps(
    domain: DomainMap,
    gamma: Sequence[complex],
    j: int,
    z0: complex,
    eps: Sequence[complex] | np.ndarray,
    cfg: QuadratureConfig | None,
) -> np.ndarray:
    """_q over the extremal leaves eps * zeta, one column per entry of eps."""
    eps = np.asarray(eps, dtype=complex)
    if not np.abs(eps).max(initial=0) <= 1 + _TOL_UNIT:
        raise ValueError("leaf parameter must satisfy |eps| <= 1")
    return _q(
        domain, gamma, j, z0, lambda zeta: eps * zeta, cfg,
        lambda cols: f"eps = {eps[list(cols)][:4].tolist()}",
    )


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
    return complex(_q_eps(domain, gamma, j, z0, [complex(eps)], cfg)[0])


def k_primitive(
    domain: DomainMap, z: complex, cfg: QuadratureConfig | None = None
) -> complex:
    """Primitive K(z) = int_0^z (P(zeta) - P(0)) / zeta d zeta.

    K is the unconstrained-region kernel: the variability region of the
    log-derivative functional over the whole class is K of the closed
    disk of radius |z0|.  K(0) = 0 by the empty contour.  K(eps z) is
    the tower integral Q with data (0,), weight -1 and leaf eps.
    """
    if z == 0:
        return 0j
    return complex(_q_eps(domain, (0j,), -1, z, [1 + 0j], cfg)[0])


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
    if not g:
        raise ValueError("gamma_prefix is empty; it must end with the unimodular entry")
    if len(g) > 1:
        return complex(_q_eps(domain, g[:-1], j, z0, [g[-1]], cfg)[0])
    # The kernel's checks, in its order, which this shortcut skips.
    if not abs(g[0]) <= 1 + _TOL_UNIT:
        raise ValueError("leaf parameter must satisfy |eps| <= 1")
    _weight(j)
    if not 0 < abs(complex(z0)) < 1:
        raise ValueError("z0 must satisfy 0 < |z0| < 1")
    return 0j


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
        object.__setattr__(self, "j", _weight(self.j))
        object.__setattr__(self, "samples", operator.index(self.samples))
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
        object.__setattr__(self, "points", tuple(np.asarray(self.points, dtype=complex).tolist()))
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
    is reported as a RuntimeError naming the theta of the first point
    that repeats its predecessor, z0, j and the domain.  The grid
    (theta and its leaves eps) comes from _grid: built once per sample
    count and shared by every trace, with eps read-only.
    """
    sp = schur_parameters(req.data)
    if sp.classification is Classification.EXTERIOR:
        return RegionResult.empty(sp)
    if sp.classification is Classification.BOUNDARY:
        prefix = sp.gamma[: sp.boundary_index + 1]
        w0 = single_point_value(req.domain, prefix, req.j, req.z0, req.quad)
        return RegionResult.single_point(w0, sp)
    thetas, eps = _grid(req.samples)
    pts = _q_eps(req.domain, sp.gamma, req.j, req.z0, eps, req.quad)
    repeats = np.flatnonzero(pts == _next(pts))
    if len(repeats):
        theta = thetas[(repeats[0] + 1) % len(thetas)]
        raise RuntimeError(
            f"trace degenerate: the point at theta = {theta} repeats its predecessor; "
            f"z0 = {req.z0}, j = {req.j}, domain {req.domain.spec_string()}"
        )
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
    p = np.asarray(poly, dtype=complex)
    if not p.size:
        raise ValueError("polygon needs at least one point")
    return p


def _next(p: np.ndarray) -> np.ndarray:
    """p_{k+1} for each k, cyclically: np.roll(p, -1) without its Python overhead."""
    return np.concatenate((p[1:], p[:1]))


def polygon_convexity(poly, tol: float = 1e-9) -> bool:
    """Whether the closed polygon turns consistently one way.

    Cross products of consecutive edges must share a sign; a cross
    smaller in magnitude than tol * (mean edge length)^2 counts as
    zero, which absorbs quadrature noise on nearly-straight stretches.
    """
    p = _points_array(poly)
    e = _next(p) - p
    scale = float(np.mean(np.abs(e))) ** 2
    cross = np.imag(np.conj(e) * _next(e))
    band = tol * scale
    has_pos = bool(np.any(cross > band))
    has_neg = bool(np.any(cross < -band))
    return not (has_pos and has_neg)


def polygon_signed_distance(poly, w: complex | np.ndarray) -> float | np.ndarray:
    """Signed distance to a convex polygon: negative inside, positive outside.

    ``w`` is a point (the result is a float) or an array of points (the
    result is a float array of the same shape).  The polygon must be
    convex, in either orientation, as a traced region is.  With its edges
    e_k = p_{k+1} - p_k turned counter-clockwise, w is inside when every
    cross_k = Re e_k Im(w - p_k) - Im e_k Re(w - p_k) is >= 0, and then
    lies min_k cross_k / |e_k| from the nearest supporting line, which
    for a convex polygon is the nearest edge.  Formed from w - p_k, the
    cross is exactly 0 on a vertex.  Zero-length edges are dropped; a
    query outside is measured against the clipped segments.
    """
    p = _points_array(poly)
    ws = np.asarray(w, dtype=complex)
    q = ws.reshape(-1)
    nxt = _next(p)
    e = nxt - p
    keep = e != 0
    pk, ek = p[keep], e[keep]
    if np.sum(np.imag(np.conj(p) * nxt)) < 0:
        ek = -ek
    # A polygon without a nonzero edge is one point: every query lies outside.
    d = _line_distances(pk, ek, q) if len(ek) else np.full(len(q), -1.0)
    out = -d
    outside = ~(d >= 0)
    if outside.any():
        out[outside] = _boundary_distances(p, q[outside])
    return float(out[0]) if ws.ndim == 0 else out.reshape(ws.shape)


def _line_distances(p: np.ndarray, e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """min_k cross_k / |e_k| for each query, over the nonzero edges e_k at p_k.

    Queries go in blocks of 32, as in _boundary_distances.
    """
    inv = 1.0 / np.abs(e)
    out = np.empty(len(q))
    for i in range(0, len(q), 32):
        d = q[i : i + 32, None] - p
        out[i : i + 32] = np.min((d.imag * e.real - d.real * e.imag) * inv, axis=1)
    return out


def _boundary_distances(p: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Distance from each query point to the boundary of the polygon p.

    The edges are built once; queries go in blocks of 32, so the
    (32 x m) temporaries stay small.
    """
    e = _next(p) - p
    ee = np.abs(e) ** 2
    ee = np.where(ee == 0, 1.0, ee)
    out = np.empty(ws.shape)
    for i in range(0, len(ws), 32):
        q = ws[i : i + 32, None]
        t = np.clip(np.real((q - p) * np.conj(e)) / ee, 0.0, 1.0)
        out[i : i + 32] = np.min(np.abs(q - (p + t * e)), axis=1)
    return out


def hausdorff(a, b) -> float:
    """Symmetric Hausdorff distance between two polygon boundaries.

    Max over the vertices of one polygon of the distance to the other's
    segments, symmetrized.  Comparing vertex sets against segments (not
    vertices) makes the measure insensitive to parametrization offsets.
    """
    pa = _points_array(a)
    pb = _points_array(b)
    d_ab = float(np.max(_boundary_distances(pb, pa)))
    d_ba = float(np.max(_boundary_distances(pa, pb)))
    return max(d_ab, d_ba)
