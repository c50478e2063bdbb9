"""The catalog maps, their domains, and P written out in mpmath.

``CATALOG`` holds the maps that every per-map test runs over, each with
its domain P(disk) as a predicate on values and whether ``max_modulus(r)``
is P(r), the maximum of |P| on |z| = r for positive Taylor coefficients.

``mp_map(dom)`` returns w -> P(w) for an mpmath number w, from the closed
forms in the ``schurvar.domains`` docstring, so it shares no code with the
float64 kernels, and ``mp_tower`` climbs a Schur tower the same way.  Both
work at the caller's precision: each caller sets its own digits with
``mpmath.workdps``.

``SERIES_MAPS`` holds the maps of the Taylor oracle, and ``series_only``
builds one whose pointwise evaluation raises, so that its series never
goes through the kernels a Taylor reference checks.  ``POINTS`` holds the
disk points at which the map tests evaluate, by band.
"""

import mpmath
import numpy as np

from schurvar import ConicSection, HalfPlane, Janowski, Sector

# For the Moebius maps (1 + A z)/(1 + B z), z = (w - 1)/(A - B w) lies in the disk.
CATALOG = (
    (HalfPlane(0.0), lambda w: np.abs(w - 1) < np.abs(1 + w), True),
    (HalfPlane(0.7), lambda w: np.abs(w - 1) < np.abs(-0.4 + w), True),
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


def mp_tower(gamma, z, w):
    """The tower over the leaf value w at z, climbed in mpmath."""
    for a in gamma[:0:-1]:
        a = mpmath.mpc(a)
        w = z * (w + a) / (1 + mpmath.conj(a) * w)
    a = mpmath.mpc(gamma[0])
    return (w + a) / (1 + mpmath.conj(a) * w)


SERIES_MAPS = {
    "halfplane:0.3": lambda: HalfPlane(0.3),
    "sector:0.5": lambda: Sector(0.5),
    "janowski:2,-1": lambda: Janowski(2, -1),
    "kucv:0.5": lambda: ConicSection(0.5),
    "kucv:1": lambda: ConicSection(1.0),
}


def series_only(make):
    """A new map from ``make`` whose ``_eval`` raises."""
    dom = make()

    def no_eval(z):
        raise AssertionError("the Taylor oracle evaluated the domain map")

    dom._eval = no_eval
    return dom


# The stream the bands of POINTS are drawn from; tests may draw on from it.
POINTS_RNG = np.random.default_rng(20)


def _band(n: int, lo: float, hi: float) -> np.ndarray:
    return 10 ** POINTS_RNG.uniform(lo, hi, n)


def _inside(z: np.ndarray) -> np.ndarray:
    return z[np.abs(z) < 1]


POINTS = {
    "disk": 0.999 * np.sqrt(POINTS_RNG.uniform(0, 1, 200))
    * np.exp(2j * np.pi * POINTS_RNG.uniform(0, 1, 200)),
    "near -1": _inside(-1 + _band(100, -9, -1) * np.exp(1j * POINTS_RNG.uniform(-1.5, 1.5, 100))),
    "negative axis": np.array(
        [complex(-x, s) for x in 1 - _band(30, -9, 0) for s in (0.0, -0.0)]
    ),
    "origin": np.array([0j, 1e-300, -1e-300, -1e-300j, 1e-300 * np.exp(2j)]),
    "rim": (1 - _band(100, -9, -3)) * np.exp(2j * np.pi * POINTS_RNG.uniform(0, 1, 100)),
}
# Its own generator, so that the draws above and the test-time draws stay
# as they were.  Log-uniform arguments come within 1e-12 of the axis,
# where |1 - z| is about 1 - |z| and Re ell(z) about 21.
_near_one = np.random.default_rng(21)
POINTS["near +1"] = (1 - 10 ** _near_one.uniform(-9, -3, 100)) * np.exp(
    1j * _near_one.choice([-1.0, 1.0], 100) * 10 ** _near_one.uniform(-12, -1, 100)
)
