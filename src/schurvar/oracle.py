"""Cross-checks for the region engine.

Three instruments:

* the classical closed-form boundary curve for the half-plane family
  with a pinned real second coefficient (two weighted principal logs),
* the normalized radial transform shared by all data-free weighted
  integral means, whose identity against the engine is exact,
* a seeded Monte-Carlo sampler of admissible functions (random
  Blaschke-product leaves) whose integrals must land inside the traced
  polygon.

The curve and H stay independent: neither climbs a tower nor calls the
region kernel, so they check that path from outside.  Membership checks
a different claim (functions that are not extremal land inside the
region), so it shares the kernel on purpose, with Blaschke leaves in
place of the extremal ones.  All leaves of a case are drawn first, from
one seeded stream in which row t (fixed by the seed and t) belongs to
trial t; one kernel call integrates every trial.  The region is convex,
so only the integrals that may be vertices of their convex hull are
measured against the polygon, unless one of them fails.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._lazy import np
from .domains import DomainMap
from .quadrature import QuadratureConfig, integrate_segment
# q_point and mobius_eval stay importable here (bench/tracing.py patches them).
from .regions import _next, _q, _q_eps, _thetas, polygon_signed_distance, q_point  # noqa: F401
from .schur import _climb, mobius_eval  # noqa: F401

__all__ = [
    "gronwall_curve_point",
    "gronwall_curve",
    "h_transform",
    "AdmissibleSampler",
    "sample_admissible",
    "MembershipReport",
    "membership_trial",
]


def gronwall_curve_point(z0: complex, lam: float, theta: float) -> complex:
    """Closed-form boundary point for the half-plane class, a2 = lam.

    With s = sin(theta/2), c = cos(theta/2), R = sqrt(1 - lam^2 s^2):

        -(1 - lam c / R) log(1 - e^{i theta/2} z0 / (i lam s - R))
        -(1 + lam c / R) log(1 - e^{i theta/2} z0 / (i lam s + R)),

    principal logs.  Requires 0 <= lam < 1 and 0 < |z0| < 1.  At
    lam = 0 this collapses to -log(1 - e^{i theta} z0^2).
    """
    z0 = complex(z0)
    lam = float(lam)
    if not 0 <= lam < 1:
        raise ValueError("lam must lie in [0, 1)")
    if not 0 < abs(z0) < 1:
        raise ValueError("z0 must satisfy 0 < |z0| < 1")
    s = math.sin(theta / 2)
    c = math.cos(theta / 2)
    r = math.sqrt(1 - lam * lam * s * s)
    half = cmath.exp(1j * theta / 2) * z0
    t1 = -(1 - lam * c / r) * cmath.log(1 - half / (1j * lam * s - r))
    t2 = -(1 + lam * c / r) * cmath.log(1 - half / (1j * lam * s + r))
    return t1 + t2


def gronwall_curve(
    z0: complex, lam: float, samples: int = 720
) -> tuple[tuple[float, ...], tuple[complex, ...]]:
    """Sample the closed-form curve on the standard trace grid."""
    thetas = tuple(_thetas(samples).tolist())
    return thetas, tuple(gronwall_curve_point(z0, lam, th) for th in thetas)


def h_transform(
    domain: DomainMap,
    j: int,
    n: int,
    z: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """Normalized radial transform

        H(z) = (j+1) z^{-(j+1)/n} int_0^{z^{1/n}} zeta^j (P(zeta^n) - 1) d zeta

    with principal fractional powers.  For data-free Schur vectors of
    length n the engine integral satisfies
    (j+1) z0^{-(j+1)} Q(z0, eps) = H(eps z0^n) exactly, independent of
    the branch chosen, which makes H a sharp cross-check.  j >= 0 here;
    the j = -1 weight belongs to the primitive K, not to H.
    """
    if j < 0:
        raise ValueError("transform weight must satisfy j >= 0")
    if n < 1:
        raise ValueError("power must satisfy n >= 1")
    z = complex(z)
    if z == 0:
        raise ValueError("argument must be nonzero")
    if not abs(z) < 1:
        raise ValueError("argument must satisfy |z| < 1")
    root = z if n == 1 else z ** (1.0 / n)

    def f(zeta: np.ndarray) -> np.ndarray:
        return zeta**j * (domain.eval(zeta**n) - domain.eval(0))

    integral = integrate_segment(f, root, cfg)
    power = (j + 1) / n
    denom = z ** (j + 1) if n == 1 else cmath.exp(power * cmath.log(z))
    return (j + 1) * integral / denom


@dataclass(frozen=True)
class AdmissibleSampler:
    """Recipe for one random admissible function.

    The free leaf of the tower is a random Blaschke product
    e^{i phi} prod (z - a_m)/(1 - conj(a_m) z) of the given degree with
    zeros drawn uniformly from |a| <= 0.9; phi uniform.  Degree 0 is
    the unimodular constant, i.e. an extremal tower.  Deterministic in
    (gamma, blaschke_degree, seed).
    """

    gamma: tuple[complex, ...]
    blaschke_degree: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "gamma", tuple(complex(v) for v in self.gamma)
        )
        if not all(abs(v) < 1 for v in self.gamma):
            raise ValueError("tower parameters must have modulus < 1")
        if self.blaschke_degree < 0:
            raise ValueError("blaschke_degree must be >= 0")


def _leaf_draws(
    seed: int, trials: int, degrees: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phases, zeros and used factors of ``trials`` random Blaschke leaves.

    One stream per call: row t of a (trials, 2 + 2 max(degrees)) block
    of uniforms u draws leaf t.  u_0 picks the degree
    degrees[floor(u_0 len(degrees))], u_1 the phase e^{2 pi i u_1}, and
    zero k is 0.9 sqrt(u_{2k+2}) e^{2 pi i u_{2k+3}} (uniform on
    |a| <= 0.9 by sqrt-radius sampling).  Row t depends only on (seed,
    t, max(degrees)), so a shorter run draws a prefix of a longer one.
    Zeros and used flags have one row per factor, shape (max(degrees),
    trials), as _blaschke_leaf takes them.
    """
    u = np.random.default_rng(seed).random((trials, 2 + 2 * max(degrees)))
    picks = np.asarray(degrees)[(u[:, 0] * len(degrees)).astype(int)]
    phase = np.exp(2j * np.pi * u[:, 1])
    zeros = 0.9 * np.sqrt(u[:, 2::2]) * np.exp(2j * np.pi * u[:, 3::2])
    used = np.arange(zeros.shape[1]) < picks[:, None]
    return phase, zeros.T, used.T


def _blaschke_leaf(
    phase: complex | np.ndarray,
    zeros: np.ndarray,
    used: np.ndarray,
    z: complex | np.ndarray,
) -> complex | np.ndarray:
    """The leaf value z B(z) of a tower over a Blaschke product B.

    ``phase`` holds one leaf's constant, or one per column; ``zeros``
    and ``used`` hold one row per factor (shape (d,) or (d, T)), and an
    unused factor contributes 1.  Columns broadcast against ``z``.
    """
    w = phase
    for a, on in zip(zeros, used):
        w = w * np.where(on, (z - a) / (1 - np.conj(a) * z), 1)
    return z * w


def sample_admissible(
    sampler: AdmissibleSampler, domain: DomainMap
) -> Callable[[complex], complex]:
    """Draw the function g = P(tower with Blaschke leaf).

    The returned closure is analytic on the open disk, maps into the
    target region, and has the Caratheodory data of sampler.gamma; the
    undetermined higher coefficients are randomized by the leaf.  It
    takes a point or an array of points.
    """
    phase, zeros, used = _leaf_draws(sampler.seed, 1, (sampler.blaschke_degree,))
    return lambda z: domain.eval(
        _climb(sampler.gamma, z, _blaschke_leaf(phase[0], zeros[:, 0], used[:, 0], z))
    )


@functools.cache
def _directions() -> np.ndarray:
    """Rows (cos, sin) of the directions 2 pi k / 16 whose extreme trial
    values span the throw-away polygon E of _hull_candidates (Akl &
    Toussaint 1978)."""
    return np.exp(2j * np.pi * np.arange(16) / 16).view(float).reshape(16, 2)


# How far inside E, relative to the largest coordinate in play, a value
# must lie to be discarded: hundreds of times the rounding of a signed
# distance.
_SLACK = 1e-12


def _hull_candidates(values: np.ndarray, scale: float) -> np.ndarray:
    """Indices of the values that may be vertices of their convex hull.

    E joins, in turn, the values extreme in each of the _directions, a
    run of one value taken once.  A value more than _SLACK * scale to
    the left of every edge of E is no hull vertex: for each point w of
    the disk of that radius about it, the argument of v - w rises as v
    runs along any edge of the closed path E, so E winds around w and
    the disk lies inside the hull.  Every other value is a candidate;
    with fewer than three distinct extremes, all are.
    """
    if len(values) < 3:
        return np.arange(len(values))
    xy = np.ascontiguousarray(values).view(float).reshape(-1, 2)
    ext = np.argmax(_directions() @ xy.T, axis=1)
    ext = ext[ext != _next(ext)]
    if len(ext) < 3:
        return np.arange(len(values))
    a = values[ext]
    d = _next(a) - a
    # The cross Im(conj(d_k) (v - a_k)), positive left of edge k, is
    # n_k . v - Im(conj(d_k) a_k) with n_k = i d_k as a real pair.
    n = (1j * d).view(float).reshape(-1, 2)
    least = (np.conj(d) * a).imag + _SLACK * scale * np.abs(d)
    return np.flatnonzero(~np.all(n @ xy.T > least[:, None], axis=0))


@dataclass(frozen=True)
class MembershipReport:
    """Aggregate of a Monte-Carlo membership run."""

    inside: int
    total: int
    max_signed_distance: float
    failures: tuple[tuple[int, complex, float], ...]


def membership_trial(
    domain: DomainMap,
    gamma: Sequence[complex],
    j: int,
    z0: complex,
    trials: int,
    seed: int,
    cfg: QuadratureConfig | None = None,
    samples: int = 256,
    degrees: Sequence[int] = (1, 2, 3, 4),
    inflation: float = 1e-6,
) -> MembershipReport:
    """Random admissible integrals against the traced polygon.

    Trial t takes its Blaschke degree (from ``degrees``), phase and
    zeros from row t of one uniform block drawn from ``seed`` (see
    _leaf_draws).  The row depends only on (seed, t, max(degrees)),
    so the counts do not depend on evaluation order and ``trials=k``
    runs the first k trials of any longer run.  All leaves are drawn
    first; then one region-kernel call, one column per trial, integrates
    zeta^j (g - g(0)) along [0, z0], and the integrals are tested
    against the polygon inflated by ``inflation``.  The kernel checks
    gamma, j and z0, and a quadrature failure names the trials.

    The test measures only the candidates of _hull_candidates.  The
    polygon is convex, as polygon_signed_distance requires, so the
    signed distance is a convex function of the query: its largest
    value over the integrals is taken at a vertex of their hull, and if
    every candidate lies within ``inflation``, so does every integral.
    The distance changes at unit rate, so a discarded integral, deeper
    inside the hull than _SLACK times the largest coordinate, lies
    below the largest distance by more than that: hundreds of times the
    rounding of a distance, so the report is the one every distance
    gives, bit for bit.  If a candidate fails, every integral is
    measured and each failure reported; at ``inflation=-inf`` (or NaN),
    where none can pass, they are measured at once.

    Note on degrees: degree 0 produces an extremal tower whose integral
    lies exactly ON the region boundary; against a chordal polygon it
    can sit outside by the local chord sag, so the default draws
    degrees 1..4, which stay strictly interior.
    """
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("degrees must name at least one blaschke degree")
    if any(d < 0 for d in degrees):
        raise ValueError("blaschke degrees must be >= 0")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    phase, zeros, used = _leaf_draws(seed, trials, degrees)
    values = _q(
        domain, gamma, j, z0,
        lambda zeta: _blaschke_leaf(phase, zeros, used, zeta), cfg,
        lambda cols: f"trials {list(cols[:4])}",
    )
    pts = _q_eps(domain, gamma, j, z0, np.exp(1j * _thetas(samples)), cfg)
    if inflation > -math.inf:
        keep = _hull_candidates(values, np.max(np.abs(np.concatenate((values, pts)).view(float))))
        if len(keep) < trials:
            top = float(np.max(polygon_signed_distance(pts, values[keep])))
            if top <= inflation:
                return MembershipReport(trials, trials, top, ())
    dist = polygon_signed_distance(pts, values)
    outside = np.flatnonzero(~(dist <= inflation)).tolist()
    return MembershipReport(
        inside=trials - len(outside),
        total=trials,
        max_signed_distance=float(np.max(dist, initial=-math.inf)),
        failures=tuple((t, complex(values[t]), float(dist[t])) for t in outside),
    )
