"""Variability of log f'(z0) under initial-coefficient constraints.

For the normalized convex-type class attached to a domain map P
(functions f with f(0) = 0, f'(0) = 1 and 1 + z f''/f' subordinate to
P), the functional log f'(z0) has an exactly computable variability
region once a2 = f''(0)/2, or both a2 and a3 = f'''(0)/6, are pinned.
The constraints fix the leading Caratheodory data of the self-map
omega = P^{-1}(1 + z f''/f'): comparing 1 + z f''/f' = 1 + 2 lambda z
+ (6 mu - 4 lambda^2) z^2 + ... with P(omega) = 1 + alpha1 omega
+ alpha2 omega^2 + ... gives the bridge

    c1 = 2 lambda / alpha1,
    c2 = (6 mu - 4 lambda^2 - alpha2 c1^2) / alpha1,

and the data (0, c1) or (0, c1, c2) goes to the region engine, whose
Schur recursion decides the degenerate |gamma1| = 1 case (single point
or empty) like any other.  The same regions describe log(f(z0)/z0) over the
associated starlike-type class, since h is starlike precisely when the
integral transform back to f is convex of the same data.

Extremal functions are f(z) = int_0^z exp Q(zeta) d zeta with Q the
tower integral; their Taylor coefficients come from pure series
arithmetic and close the loop back to (lambda, mu).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from . import _EXPORTS
from .domains import DomainMap
from .quadrature import QuadratureConfig, QuadratureError, integrate_segment
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
from .schur import BlaschkeTower, schur_parameters, tower_taylor
from .series import ComplexSeries, series_compose, series_exp

__all__ = list(_EXPORTS["variability"])


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

    Both come from schur_parameters on the data (0, c1, c2) that
    cv_region traces, so on the circle |gamma1| = 1 gamma2 is 0 (single
    attainable function) or INF (no function at all) exactly when the
    region is a single point or empty.  Past an exterior gamma1 the
    recursion stops, and gamma2 keeps the interior formula
    c2 / (1 - |gamma1|^2).
    """
    data = _bridge_data(FixedA2A3(lam, mu), domain)
    gamma = schur_parameters(data).gamma
    g2 = gamma[2] if len(gamma) > 2 else data[2] / (1 - abs(gamma[1]) ** 2)
    return GammaPair(gamma[1], g2)


def _bridge_data(c: FixedA2 | FixedA2A3 | None, domain: DomainMap) -> tuple[complex, ...]:
    """Caratheodory data (0,), (0, c1) or (0, c1, c2) of omega under c."""
    if c is None:
        return (0j,)
    if not isinstance(c, (FixedA2, FixedA2A3)):
        raise TypeError("unsupported constraint")
    c1 = gamma_from_a2(c.lam, domain)
    if isinstance(c, FixedA2):
        return (0j, c1)
    lam = complex(c.lam)
    c2 = (6 * complex(c.mu) - 4 * lam * lam - domain.alpha2 * c1 * c1) / domain.alpha1
    return (0j, c1, c2)


def cv_region(
    query: VariabilityQuery,
    samples: int = 256,
    cfg: QuadratureConfig | None = None,
) -> RegionResult:
    """Region of the constrained log-derivative functional.

    Every query goes through the region engine with weight -1.  An
    unconstrained query is the data (0,): its boundary K(eps z0) over
    unimodular eps is the primitive K on the circle |z| = |z0|.
    Coefficient constraints go through the bridge to the data
    (0, c1[, c2]), and the engine also produces the degenerate
    single-point and empty variants.  RegionRequest checks z0.
    """
    req = RegionRequest(
        domain=query.domain, data=_bridge_data(query.constraint, query.domain), j=-1,
        z0=query.z0, samples=samples, quad=cfg,
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
    integrals run at a tenth of the outer abs_tol (the kernel reads no
    rel_tol) so their noise stays below the outer error estimate.
    f(0) = 0 and f'(0) = 1.
    A failure of the outer integral names eps, z and the domain; one of
    an inner integral is raised as the kernel named it.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    inner = replace(cfg, abs_tol=cfg.abs_tol / 10)
    z = complex(z)
    if not abs(z) < 1:
        raise ValueError("argument must satisfy |z| < 1")
    tower = BlaschkeTower((0j,) + tuple(gamma), eps)
    if z == 0:
        return 0j
    inner_failures = []

    def f(zeta: np.ndarray) -> np.ndarray:
        try:
            q = _q(
                domain, tower.gamma, -1, zeta, lambda w: tower.epsilon * w, inner,
                lambda cols: f"eps = {tower.epsilon}",
            )
        except QuadratureError as exc:
            inner_failures.append(exc)
            raise
        return np.exp(q)

    try:
        return integrate_segment(f, z, cfg)
    except QuadratureError as exc:
        if inner_failures:
            raise
        raise exc.with_context(
            f"eps = {tower.epsilon}, z = {z}, domain {domain.spec_string()}") from exc


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
    order = operator.index(order)
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
