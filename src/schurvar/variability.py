"""Variability of log f'(z0) under initial-coefficient constraints.

For the normalized convex-type class attached to a domain map P
(functions f with f(0) = 0, f'(0) = 1 and 1 + z f''/f' subordinate to
P), the functional log f'(z0) has an exactly computable variability
region once a2 = f''(0)/2, or both a2 and a3 = f'''(0)/6, are pinned.
The constraints convert to Schur parameters of the underlying self-map
data through the bridge

    gamma1 = 2 lambda / alpha1,
    gamma2 = 2 conj(alpha1) (3 alpha1^2 mu - 2 (alpha1^2 + alpha2) lambda^2)
             / ( alpha1^2 ( |alpha1|^2 - 4 |lambda|^2 ) ),

with the degenerate |gamma1| = 1 case collapsing gamma2 to 0 (single
point) or INF (empty).  The corresponding Caratheodory data is
(0, gamma1) or (0, gamma1, gamma2 (1 - |gamma1|^2)), and the region
engine does the rest.  The same regions describe log(f(z0)/z0) over the
associated starlike-type class, since h is starlike precisely when the
integral transform back to f is convex of the same data.

Extremal functions are f(z) = int_0^z exp Q(zeta) d zeta with Q the
tower integral; their Taylor coefficients come from pure series
arithmetic and close the loop back to (lambda, mu).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._lazy import np
from .domains import DomainMap
from .quadrature import QuadratureConfig, integrate_segment
# k_primitive and q_point stay importable from this module (bench/tracing.py patches them here).
from .regions import (  # noqa: F401
    RegionRequest,
    RegionResult,
    _q,
    k_primitive,
    q_point,
    region_compute,
)
# bench/tracing.py patches tower_taylor and series_compose by name here.
from .schur import _TOL_UNIT, INF, BlaschkeTower, tower_taylor
from .series import ComplexSeries, series_compose, series_exp

__all__ = [
    "FixedA2",
    "FixedA2A3",
    "VariabilityQuery",
    "GammaPair",
    "gamma_from_a2",
    "gamma_from_a2a3",
    "cv_region",
    "extremal_f_eval",
    "extremal_coefficients",
]


@dataclass(frozen=True)
class FixedA2:
    """Constraint a2 = lam."""

    lam: complex


@dataclass(frozen=True)
class FixedA2A3:
    """Constraint a2 = lam and a3 = mu."""

    lam: complex
    mu: complex


@dataclass(frozen=True)
class VariabilityQuery:
    """A region request phrased in coefficient terms.

    constraint is None (whole class), FixedA2, or FixedA2A3.  The
    region is that of log f'(z0) over the convex-type class, and equally
    that of log(h(z0)/z0) over the associated starlike-type class.
    """

    domain: DomainMap
    z0: complex
    constraint: FixedA2 | FixedA2A3 | None = None


@dataclass(frozen=True)
class GammaPair:
    """Bridged Schur parameters; gamma2 may be the INF sentinel."""

    gamma1: complex
    gamma2: object


def gamma_from_a2(lam: complex, domain: DomainMap) -> complex:
    """First bridged parameter gamma1 = 2 lam / alpha1."""
    return 2 * complex(lam) / domain.alpha1


def gamma_from_a2a3(
    lam: complex, mu: complex, domain: DomainMap
) -> GammaPair:
    """Bridge (a2, a3) = (lam, mu) to Schur parameters (gamma1, gamma2).

    On the circle |gamma1| = 1 (within the band schur_parameters reads
    as unimodular, 1e-12) the pair degenerates:
    gamma2 is 0 when 3 alpha1^2 mu equals 2 (alpha1^2 + alpha2) lam^2
    (single attainable function) and INF otherwise (no function at
    all).  The equality is tested to relative accuracy 1e-12 since both
    sides are float-valued.
    """
    lam = complex(lam)
    mu = complex(mu)
    a1 = domain.alpha1
    a2 = domain.alpha2
    g1 = 2 * lam / a1
    lhs = 3 * a1 * a1 * mu
    rhs = 2 * (a1 * a1 + a2) * lam * lam
    if abs(abs(g1) - 1) <= _TOL_UNIT:
        scale = max(1.0, abs(lhs), abs(rhs))
        g2: object = 0j if abs(lhs - rhs) <= _TOL_UNIT * scale else INF
        return GammaPair(g1, g2)
    denom = a1 * a1 * (abs(a1) ** 2 - 4 * abs(lam) ** 2)
    g2 = 2 * a1.conjugate() * (lhs - rhs) / denom
    return GammaPair(g1, g2)


def cv_region(
    query: VariabilityQuery,
    samples: int = 256,
    cfg: QuadratureConfig | None = None,
) -> RegionResult:
    """Region of the constrained log-derivative functional.

    Every query goes through the region engine with weight -1.  An
    unconstrained query is the data (0,): its boundary K(eps z0) over
    unimodular eps is the primitive K on the circle |z| = |z0|.
    Coefficient constraints go through the parameter bridge, and the
    engine also produces the degenerate single-point and empty
    variants.
    """
    z0 = complex(query.z0)
    if not 0 < abs(z0) < 1:
        raise ValueError("z0 must satisfy 0 < |z0| < 1")
    c = query.constraint
    if c is None:
        data: tuple[complex, ...] = (0j,)
    elif isinstance(c, FixedA2):
        data = (0j, gamma_from_a2(c.lam, query.domain))
    elif isinstance(c, FixedA2A3):
        pair = gamma_from_a2a3(c.lam, c.mu, query.domain)
        if pair.gamma2 is INF:
            return RegionResult.empty()
        g1 = pair.gamma1
        data = (0j, g1, pair.gamma2 * (1 - abs(g1) ** 2))
    else:
        raise TypeError("unsupported constraint")
    req = RegionRequest(
        domain=query.domain, data=data, j=-1, z0=z0, samples=samples, quad=cfg
    )
    return region_compute(req)


def extremal_f_eval(
    domain: DomainMap,
    gamma: tuple[complex, ...],
    eps: complex,
    z: complex,
    cfg: QuadratureConfig | None = None,
) -> complex:
    """Extremal function value f(z) = int_0^z exp(Q(zeta, eps)) d zeta.

    ``gamma`` holds the tower parameters BELOW the structural leading
    zero (the data is (0, gamma_1, ..., gamma_m)), matching the
    coefficient-bridge convention.  Each outer panel gets Q at all its
    nodes from one kernel call, one endpoint per node; these inner
    integrals run at a tenth of the outer tolerance so their noise
    stays below the outer error estimate.  f(0) = 0 and f'(0) = 1.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    inner = replace(cfg, abs_tol=cfg.abs_tol / 10, rel_tol=cfg.rel_tol / 10)
    z = complex(z)
    if z == 0:
        return 0j
    if not abs(z) < 1:
        raise ValueError("argument must satisfy |z| < 1")
    tower = BlaschkeTower((0j,) + tuple(gamma), eps)

    def f(zeta: np.ndarray) -> np.ndarray:
        q = _q(
            domain, tower.gamma, -1, zeta, lambda w: tower.epsilon * w, inner,
            lambda cols: f"eps = {tower.epsilon}",
        )
        return np.exp(q)

    return integrate_segment(f, z, cfg)


def extremal_coefficients(
    domain: DomainMap,
    gamma: tuple[complex, ...],
    eps: complex,
    order: int,
) -> ComplexSeries:
    """Taylor coefficients (0, 1, a2, a3, ...) of the extremal function.

    Pure series pipeline, no quadrature: tower series -> compose with
    the domain map -> drop the constant, divide by z, integrate -> exp
    -> integrate.  ``gamma`` uses the same below-the-leading-zero
    convention as extremal_f_eval.  Needs order >= 3 so that a2, a3
    exist.
    """
    if order < 3:
        raise ValueError("order must be >= 3")
    full = (0j,) + tuple(complex(v) for v in gamma)
    work = order - 1
    tower = BlaschkeTower(full, eps)
    omega = tower_taylor(tower, work)
    g = series_compose(domain.taylor(work), omega)
    # (g - g0)/z integrated termwise: S_p = g_p / p.
    s = ComplexSeries((0j,) + tuple(g.coeffs[p] / p for p in range(1, work + 1)))
    e = series_exp(s)
    # f_k = E_{k-1} / k for k >= 1; E_0 = 1 gives f_1 = 1.
    out = [0j] + [e.coeffs[k - 1] / k for k in range(1, order + 1)]
    return ComplexSeries(tuple(out))
