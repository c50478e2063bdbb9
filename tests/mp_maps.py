"""The catalog maps, their domains, and P written out in mpmath.

``CATALOG`` holds the maps that every per-map test runs over, each with
its domain P(disk) as a predicate on values and whether ``max_modulus(r)``
is P(r), the maximum of |P| on |z| = r for positive Taylor coefficients.

``mp_map(dom)`` returns w -> P(w) for an mpmath number w, from the closed
forms in the ``schurvar.domains`` docstring, so it shares no code with the
float64 kernels.  It works at the caller's precision: each caller sets its
own digits with ``mpmath.workdps``.
"""

import mpmath
import numpy as np

from schurvar import ConicSection, HalfPlane, Janowski, Sector

# For the Moebius maps (1 + A z)/(1 + B z), z = (w - 1)/(A - B w) lies in the disk.
CATALOG = (
    (HalfPlane(0.0), lambda w: np.abs(w - 1) < np.abs(1 + w), True),
    # Positive coefficients, but max_modulus (1 + |A| r)/(1 - r) > P(r) as A < 0.
    (HalfPlane(0.7), lambda w: np.abs(w - 1) < np.abs(-0.4 + w), False),
    (HalfPlane(-0.5), lambda w: np.abs(w - 1) < np.abs(2 + w), True),
    (Sector(0.1), lambda w: np.abs(np.angle(w)) < 0.05 * np.pi, True),
    (Sector(0.5), lambda w: np.abs(np.angle(w)) < 0.25 * np.pi, True),
    (Sector(1.0), lambda w: np.abs(np.angle(w)) < 0.5 * np.pi, True),
    (Janowski(2, -1), lambda w: np.abs(w - 1) < np.abs(2 + w), True),
    (Janowski(-2, 0.5), lambda w: np.abs(w - 1) < np.abs(-2 - 0.5 * w), False),
    (Janowski(1 + 0.5j, -0.7j), lambda w: np.abs(w - 1) < np.abs(1 + 0.5j + 0.7j * w), False),
    (Janowski(0.5, 1), lambda w: np.abs(w - 1) < np.abs(0.5 - w), False),
    (ConicSection(0.0), lambda w: w.real > 0, True),
    (ConicSection(0.5), lambda w: w.real > 0.5 * np.abs(w - 1), True),
    (ConicSection(1.0), lambda w: w.real > np.abs(w - 1), True),
    (HalfPlane(0.5), lambda w: np.abs(w - 1) < np.abs(w), True),
)


def mp_map(dom):
    """P of the catalog map ``dom`` as a function of an mpmath number."""
    if isinstance(dom, HalfPlane):
        return lambda w: (1 + (1 - 2 * mpmath.mpf(dom.alpha)) * w) / (1 - w)
    if isinstance(dom, Janowski):
        return lambda w: (1 + mpmath.mpc(dom.A) * w) / (1 + mpmath.mpc(dom.B) * w)
    if isinstance(dom, Sector):
        return lambda w: ((1 + w) / (1 - w)) ** mpmath.mpf(dom.beta)
    assert isinstance(dom, ConicSection), dom
    k = mpmath.mpf(dom.k)

    def conic(w):
        ell = mpmath.log((1 + mpmath.sqrt(w)) / (1 - mpmath.sqrt(w)))
        if k == 1:
            return 1 + 2 / mpmath.pi**2 * ell**2
        return (mpmath.cosh(2 / mpmath.pi * mpmath.acos(k) * ell) - k**2) / (1 - k**2)

    return conic
