"""Exact symmetries of the weighted tower integral Q as oracles.

Each side of an identity runs through different towers, endpoints and
quadrature nodes, so a fault in the climb, a map or the plan shows as a
mismatch; neither side needs a reference value.

* Rotation.  g(e^{i phi} z) has data c_k e^{i k phi} and tower
  parameters gamma_k e^{i k phi}, and its leaf turns with the tower:
  Q over the rotated gamma at (z0, eps) equals
  e^{-i (j+1) phi} Q(e^{i phi} z0, eps e^{-i (n+1) phi}) over gamma,
  for gamma = (gamma_0, ..., gamma_n).  Substituting zeta = e^{-i phi} w
  in the integral gives the factor.
* Conjugation.  A map with real coefficients has P(conj w) = conj P(w),
  so Q over conj gamma at (conj z0, conj eps) equals conj Q.
* Rotation of cv_region.  f -> e^{-i phi} f(e^{i phi} z) keeps CV(Omega)
  and turns (a2, a3) into (e^{i phi} a2, e^{2 i phi} a3), so the region
  for the turned constraint at z0 is the region for the constraint at
  e^{i phi} z0.  With (n + 1) phi = 2 pi s / samples the two traces
  agree point for point after a cyclic shift of s leaves.
* Prefix nesting.  Each function with data (c0 ... cn) has data
  (c0 ... c_{n-1}), so every point of the trace over the longer data
  lies inside the polygon over the shorter.
* Growth in |z0|.  For data (0,) and j = -1 the region is K of the
  closed disk of radius |z0|, and K is convex and univalent (zK' = P - 1
  is starlike, by Alexander's theorem).  So the trace at a smaller
  radius lies inside the polygon at a larger one, and the trace at the
  larger radius lies outside the polygon at the smaller.
"""

import cmath

import numpy as np
import pytest

from schurvar import (
    BlaschkeTower,
    ConicSection,
    FixedA2,
    FixedA2A3,
    HalfPlane,
    Janowski,
    RegionRequest,
    Sector,
    VariabilityQuery,
    cv_region,
    polygon_signed_distance,
    q_point,
    region_compute,
    tower_taylor,
)

MAPS = [
    HalfPlane(), HalfPlane(0.7), Sector(0.5), Janowski(2, -1), Janowski(1 + 0.5j, -0.7j),
    ConicSection(0.5), ConicSection(1.0),
]
# |a - b| / max(1, |a|).
TOL = 1e-13


def _disk(rng, r):
    """A point drawn uniformly from |w| <= r."""
    return r * np.sqrt(rng.uniform()) * cmath.exp(2j * np.pi * rng.uniform())


def _cases(seed):
    """Eight seeded (gamma, j, z0, eps, phi): n 0-3 and j -1 to 2 in turn,
    |gamma_k| <= 0.6, |z0| in [0.3, 0.99] with the last at 0.99, and
    eps on the circle or inside it."""
    rng = np.random.default_rng(seed)
    for k in range(8):
        n, j = k % 4, k // 2 % 4 - 1
        gamma = tuple(_disk(rng, 0.6) for _ in range(n + 1))
        r = 0.99 if k == 7 else rng.uniform(0.3, 0.99)
        z0 = r * cmath.exp(2j * np.pi * rng.uniform())
        eps = (1 if k % 2 else rng.uniform()) * cmath.exp(2j * np.pi * rng.uniform())
        yield gamma, j, z0, eps, 2 * np.pi * rng.uniform()


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a))


@pytest.mark.parametrize("seed, dom", enumerate(MAPS), ids=[d.spec_string() for d in MAPS])
def test_rotation(seed, dom):
    for gamma, j, z0, eps, phi in _cases(seed):
        n = len(gamma) - 1
        turned = tuple(g * cmath.exp(1j * k * phi) for k, g in enumerate(gamma))
        a = q_point(dom, turned, j, z0, eps)
        b = q_point(dom, gamma, j, cmath.exp(1j * phi) * z0, eps * cmath.exp(-1j * (n + 1) * phi))
        assert _rel(a, cmath.exp(-1j * (j + 1) * phi) * b) <= TOL, (gamma, j, z0, eps, phi)


REAL = [dom for dom in MAPS if not isinstance(dom, Janowski) or (dom.A.imag, dom.B.imag) == (0, 0)]


@pytest.mark.parametrize("seed, dom", enumerate(REAL), ids=[d.spec_string() for d in REAL])
def test_conjugation(seed, dom):
    for gamma, j, z0, eps, _ in _cases(100 + seed):
        a = q_point(dom, gamma, j, z0, eps)
        b = q_point(dom, tuple(g.conjugate() for g in gamma), j, z0.conjugate(), eps.conjugate())
        assert _rel(a, b.conjugate()) <= TOL, (gamma, j, z0, eps)


SAMPLES = 64


@pytest.mark.parametrize("seed, dom", enumerate(MAPS), ids=[d.spec_string() for d in MAPS])
def test_cv_region_rotation(seed, dom):
    # No constraint, a2, and a2 and a3 twice; (lam, mu) are bridged from
    # |gamma1|, |gamma2| <= 0.6 so that every region is traced.
    rng = np.random.default_rng(200 + seed)
    a1, a2 = dom.alpha1, dom.alpha2
    for n in (0, 1, 2, 2):
        lam = _disk(rng, 0.6) * a1 / 2
        mu = (_disk(rng, 0.6) * a1 * a1 * (abs(a1) ** 2 - 4 * abs(lam) ** 2) / (2 * a1.conjugate())
              + 2 * (a1 * a1 + a2) * lam * lam) / (3 * a1 * a1)
        z0 = rng.uniform(0.3, 0.95) * cmath.exp(2j * np.pi * rng.uniform())
        s = int(rng.integers(1, SAMPLES // 2))  # s = samples / 2 cannot tell the shift's sign
        u = cmath.exp(2j * np.pi * s / (SAMPLES * (n + 1)))
        plain = [None, FixedA2(lam), FixedA2A3(lam, mu)][n]
        turned = [None, FixedA2(u * lam), FixedA2A3(u * lam, u * u * mu)][n]
        a = np.array(cv_region(VariabilityQuery(dom, z0, turned), SAMPLES).polygon.points)
        b = np.array(cv_region(VariabilityQuery(dom, u * z0, plain), SAMPLES).polygon.points)
        assert np.max(np.abs(a - np.roll(b, s))) <= TOL * max(1.0, np.max(np.abs(b))), (n, z0, s)


@pytest.mark.parametrize("seed, dom", enumerate(MAPS), ids=[d.spec_string() for d in MAPS])
def test_prefix_nesting(seed, dom):
    # Data of length 2-4 from random towers, j -1 to 2, |z0| in [0.5, 0.95].
    rng = np.random.default_rng(300 + seed)
    for k in range(6):
        n, j = k % 3 + 1, k % 4 - 1
        gamma = tuple(_disk(rng, 0.6) for _ in range(n + 1))
        data = tower_taylor(BlaschkeTower(gamma, 1), n).coeffs
        z0 = rng.uniform(0.5, 0.95) * cmath.exp(2j * np.pi * rng.uniform())
        inner = region_compute(RegionRequest(dom, data, j, z0, SAMPLES)).polygon.points
        outer = region_compute(RegionRequest(dom, data[:-1], j, z0, SAMPLES)).polygon.points
        assert np.all(polygon_signed_distance(outer, np.array(inner)) < 0), (gamma, j, z0)


@pytest.mark.parametrize("seed, dom", enumerate(MAPS), ids=[d.spec_string() for d in MAPS])
def test_growth_in_endpoint_modulus(seed, dom):
    # r2 in [0.3, 0.99] with the last at 0.99, r1 <= 0.9 r2, and each
    # endpoint at its own argument: the region depends on |z0| alone.
    rng = np.random.default_rng(400 + seed)
    for k in range(3):
        r2 = 0.99 if k == 2 else rng.uniform(0.3, 0.99)
        r1 = rng.uniform(0.1, 0.9) * r2
        inner, outer = (
            region_compute(RegionRequest(dom, (0j,), -1, r * cmath.exp(2j * np.pi * rng.uniform()), SAMPLES))
            .polygon.points
            for r in (r1, r2)
        )
        assert np.all(polygon_signed_distance(outer, np.array(inner)) < 0), (r1, r2)
        assert np.all(polygon_signed_distance(inner, np.array(outer)) > 0), (r1, r2)
