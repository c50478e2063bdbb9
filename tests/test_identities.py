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
"""

import cmath

import numpy as np
import pytest

from schurvar import ConicSection, HalfPlane, Janowski, Sector, q_point

MAPS = [
    HalfPlane(), HalfPlane(0.7), Sector(0.5), Janowski(2, -1), Janowski(1 + 0.5j, -0.7j),
    ConicSection(0.5), ConicSection(1.0),
]
# |a - b| / max(1, |a|).
TOL = 1e-13


def _cases(seed):
    """Eight seeded (gamma, j, z0, eps, phi): n 0-3 and j -1 to 2 in turn,
    |gamma_k| <= 0.6, |z0| in [0.3, 0.99] with the last at 0.99, and
    eps on the circle or inside it."""
    rng = np.random.default_rng(seed)
    for k in range(8):
        n, j = k % 4, k // 2 % 4 - 1
        gamma = tuple(0.6 * np.sqrt(rng.uniform()) * cmath.exp(2j * np.pi * rng.uniform())
                      for _ in range(n + 1))
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
