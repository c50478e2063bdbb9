"""Independent cross-checks for the region engine.

Three instruments, all computed by routes disjoint from the engine's
quadrature-over-towers path:

* the classical closed-form boundary curve for the half-plane family
  with a pinned real second coefficient (two weighted principal logs),
* the normalized radial transform shared by all data-free weighted
  integral means, whose identity against the engine is exact,
* a seeded Monte-Carlo sampler of admissible functions (random
  Blaschke-product leaves) whose integrals must land inside the traced
  polygon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domains import DomainMap
from .quadrature import QuadratureConfig, integrate_segment
# q_point stays importable from this module (bench/tracing.py patches it here).
from .regions import _q, polygon_signed_distance, q_point, theta_grid  # noqa: F401
from .schur import mobius_eval

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
    thetas = theta_grid(samples)
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
    if abs(z) >= 1:
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
        if any(abs(v) >= 1 for v in self.gamma):
            raise ValueError("tower parameters must have modulus < 1")
        if self.blaschke_degree < 0:
            raise ValueError("blaschke_degree must be >= 0")


def sample_admissible(
    sampler: AdmissibleSampler, domain: DomainMap
) -> Callable[[complex], complex]:
    """Draw the function g = P(tower with Blaschke leaf).

    The returned closure is analytic on the open disk, maps into the
    target region, and has the Caratheodory data of sampler.gamma; the
    undetermined higher coefficients are randomized by the leaf.  It
    takes a point or an array of points.
    """
    rng = np.random.default_rng(sampler.seed)
    phi = float(rng.uniform(0, 2 * math.pi))
    zeros = []
    for _ in range(sampler.blaschke_degree):
        # Uniform on the disk of radius 0.9 by sqrt-radius sampling.
        radius = 0.9 * math.sqrt(float(rng.uniform()))
        angle = float(rng.uniform(0, 2 * math.pi))
        zeros.append(radius * cmath.exp(1j * angle))
    phase = cmath.exp(1j * phi)
    g = sampler.gamma

    def leaf(z):
        w = phase
        for a in zeros:
            w = w * (z - a) / (1 - a.conjugate() * z)
        return w

    def fn(z):
        w = z * leaf(z)
        for i in range(len(g) - 1, 0, -1):
            w = z * mobius_eval(g[i], w)
        return domain.eval(mobius_eval(g[0], w))

    return fn


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

    Each trial draws a Blaschke degree from ``degrees``, builds an
    admissible function on an independent per-trial stream derived from
    (seed, trial index), integrates zeta^j (g - g(0)) along [0, z0],
    and tests containment in the polygon inflated by ``inflation``.
    Per-trial streams make the aggregate counts independent of
    evaluation order.

    Note on degrees: degree 0 produces an extremal tower whose integral
    lies exactly ON the region boundary; against a chordal polygon it
    can sit outside by the local chord sag, so the default draws
    degrees 1..4, which stay strictly interior.
    """
    gamma = tuple(complex(v) for v in gamma)
    z0 = complex(z0)
    eps = np.exp(1j * np.asarray(theta_grid(samples)))
    pts = _q(domain, gamma, j, z0, eps, cfg)
    base = domain.eval(gamma[0])
    degrees = tuple(int(d) for d in degrees)
    inside = 0
    worst = -math.inf
    failures = []
    for t in range(trials):
        pick = np.random.default_rng((seed, t, 0xD0))
        degree = int(degrees[int(pick.integers(len(degrees)))])
        sampler = AdmissibleSampler(
            gamma=gamma,
            blaschke_degree=degree,
            seed=_stream_seed(seed, t),
        )
        g = sample_admissible(sampler, domain)

        def f(zeta: np.ndarray) -> np.ndarray:
            return zeta**j * (g(zeta) - base)

        value = integrate_segment(f, z0, cfg)
        dist = polygon_signed_distance(pts, value)
        worst = max(worst, dist)
        if dist <= inflation:
            inside += 1
        else:
            failures.append((t, value, dist))
    return MembershipReport(
        inside=inside,
        total=trials,
        max_signed_distance=worst,
        failures=tuple(failures),
    )


def _stream_seed(seed: int, trial: int) -> int:
    # Stable per-trial stream id; fits the sampler's integer seed field.
    return (seed * 1_000_003 + trial) % (2**63)
