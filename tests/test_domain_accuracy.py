"""Sector and conic maps against 40-digit mpmath.

Both maps run in float64 through the real kernel ``domains._ell``; the
reference takes mpmath's complex power, sqrt, log and cosh at 40 digits
at the same (exact) float input, so it shares no code with the kernel.
The error is |P - P*| / max(1, |P*|).  Bounds, fixed from a measurement
over 4,000 disk points, 2,000 points in each band, 50 points per sign
on the negative axis and 3,000 more rim points for kucv (numpy 2.4.6;
the figures are for cos and sin taken from tan(phi/2), and a fresh
draw of the same sizes), and 6,000 points near +1:

- sector, beta in {0.1, 0.5, 1}, on the disk, the bands near -1 and on
  the rim (uniform arguments), the negative axis and the origin: 1e-15
  (measured at most 4.5e-16);
- sector near +1, 1 - 1e-9 >= |z| >= 0.999 and |arg z| <= 0.1:
  2 eps (1 + beta |Re ell(z)|), eps = 2^-52 (measured at most
  1.12 eps (1 + beta |Re ell(z)|); 1.9e-15 at beta = 1, where 10% of
  the points exceed 1e-15).  Re ell(z) = log|(1+z)/(1-z)| reaches 21
  there, and the kernel's rounding of it is multiplied by beta in
  exp(beta ell), so the fixed 1e-15 cannot hold;
- kucv, k in {0, 0.5, 1}, for |z| <= 0.999: 1e-14 (measured at most
  6.6e-15);
- kucv for 0.999 < |z| <= 1 - 1e-9: 1e-15 / (1 - |z|) (measured at most
  2.2e-16 / (1 - |z|), with 2,000 more rim points within 0.1 of the
  argument 0).  The rounding of sqrt z is divided by
  1 - sqrt z; evaluating with numpy's complex sqrt and log, as the
  module did before, errs by as much (1.5e-16 / (1 - |z|)).

The band near z = -1 is where the plain log1p(4p / ((1-p)^2 + q^2))
cancels; a test checks that it breaks the sector bound there.

The conic Taylor coefficients to order 64 are checked against a 40-digit
Cauchy sum over 256 points on |z| = 1/2, whose aliasing is of order
2^-256: within 1e-13 absolute (measured 2.2e-16 at k = 0.5 and 5.6e-17
at k = 1 for the closed-form series; 6.3e-14 and 2.5e-14 for the circle
sampling it replaced).
"""

import functools

import mpmath
import numpy as np
import pytest

from schurvar import ConicSection, Sector
from schurvar import domains

from mp_maps import mp_map

SECTOR_BOUND = 1e-15
SECTOR_NEAR_ONE_BOUND = 2 * np.finfo(float).eps  # times 1 + beta |Re ell(z)|, near +1
KUCV_BOUND = 1e-14
KUCV_RIM_BOUND = 1e-15  # times 1 / (1 - |z|), for |z| > 0.999
KUCV_TAYLOR_BOUND = 1e-13  # absolute, coefficients 0..64
CIS_BOUND = 4.5e-16  # absolute, against numpy's cos and sin

_rng = np.random.default_rng(20)


def _band(n: int, lo: float, hi: float) -> np.ndarray:
    return 10 ** _rng.uniform(lo, hi, n)


def _inside(z: np.ndarray) -> np.ndarray:
    return z[np.abs(z) < 1]


POINTS = {
    "disk": 0.999 * np.sqrt(_rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * _rng.uniform(0, 1, 200)),
    "near -1": _inside(-1 + _band(100, -9, -1) * np.exp(1j * _rng.uniform(-1.5, 1.5, 100))),
    "negative axis": np.array(
        [complex(-x, s) for x in 1 - _band(30, -9, 0) for s in (0.0, -0.0)]
    ),
    "origin": np.array([0j, 1e-300, -1e-300, -1e-300j, 1e-300 * np.exp(2j)]),
    "rim": (1 - _band(100, -9, -3)) * np.exp(2j * np.pi * _rng.uniform(0, 1, 100)),
}
# Its own generator, so that the draws above and the test-time draws stay
# as they were.  Log-uniform arguments come within 1e-12 of the axis,
# where |1 - z| is about 1 - |z| and Re ell(z) about 21.
_near_one = np.random.default_rng(21)
POINTS["near +1"] = (1 - 10 ** _near_one.uniform(-9, -3, 100)) * np.exp(
    1j * _near_one.choice([-1.0, 1.0], 100) * 10 ** _near_one.uniform(-12, -1, 100)
)
MAPS = [Sector(0.1), Sector(0.5), Sector(1.0),
        ConicSection(0.0), ConicSection(0.5), ConicSection(1.0)]


def _reference(dom, z: complex) -> complex:
    return complex(mp_map(dom)(mpmath.mpc(z.real, z.imag)))


@functools.lru_cache(maxsize=None)
def _references(spec: str, key: str) -> np.ndarray:
    dom = next(d for d in MAPS if d.spec_string() == spec)
    with mpmath.workdps(40):
        return np.array([_reference(dom, z) for z in POINTS[key]])


def _errors(dom, key: str) -> np.ndarray:
    want = _references(dom.spec_string(), key)
    return np.abs(dom.eval(POINTS[key]) - want) / np.maximum(1, np.abs(want))


def _bound(dom, key: str, z: np.ndarray) -> np.ndarray:
    if isinstance(dom, Sector):
        if key == "near +1":
            re_ell = np.log(np.abs((1 + z) / (1 - z)))
            return SECTOR_NEAR_ONE_BOUND * (1 + dom.beta * np.abs(re_ell))
        return np.full(z.shape, SECTOR_BOUND)
    r = np.abs(z)
    return np.where(r <= 0.999, KUCV_BOUND, KUCV_RIM_BOUND / (1 - r))


@pytest.mark.parametrize("key", sorted(POINTS))
@pytest.mark.parametrize("dom", MAPS, ids=lambda d: d.spec_string())
def test_map_matches_40_digit_reference(dom, key):
    err = _errors(dom, key)
    bound = _bound(dom, key, POINTS[key])
    worst = int(np.argmax(err / bound))
    assert err[worst] <= bound[worst], (POINTS[key][worst], err[worst])


@pytest.mark.parametrize("dom", MAPS, ids=lambda d: d.spec_string())
def test_negative_axis_is_real_from_either_side(dom):
    # P has no cut in the disk: both signed zeros give the same real value.
    x = POINTS["negative axis"].real[::2]
    above = dom.eval(x + 0.0j)
    below = dom.eval(np.array([complex(v, -0.0) for v in x]))
    assert np.all(above.imag == 0) and np.all(below.imag == 0)
    assert np.array_equal(above.real, below.real)


def test_band_near_minus_one_catches_the_plain_log1p_form(monkeypatch):
    def plain(p, q):
        q2 = q * q
        re = 0.5 * np.log1p(4 * p / ((1 - p) ** 2 + q2))
        return re, np.arctan2(2 * q, (1 - p) * (1 + p) - q2)

    monkeypatch.setattr(domains, "_ell", plain)
    with np.errstate(all="ignore"):
        err = _errors(Sector(0.1), "near -1")
    assert not np.all(err <= SECTOR_BOUND)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cis_matches_cos_and_sin(sign):
    # Across (-pi, pi), up to within 1e-9 of its ends; cos and sin of a
    # float phi come from tan(phi/2), within CIS_BOUND of numpy's cos and
    # sin.
    h = np.pi
    phi = sign * np.concatenate([
        np.linspace(0, h, 200_000, endpoint=False), [np.pi / 2, np.nextafter(h, 0)],
        _rng.uniform(0, h, 10_000), h - np.logspace(-9, -1, 1_000),
    ])
    cos, sin = domains._cis(phi)
    assert np.max(np.abs(cos - np.cos(phi))) <= CIS_BOUND
    assert np.max(np.abs(sin - np.sin(phi))) <= CIS_BOUND
    # A zero angle keeps its sign in sin, and so does a zero imaginary
    # part on the real axis: P(conj z) = conj P(z) bit for bit.
    zero = np.array([sign * 0.0])
    cos, sin = domains._cis(zero)
    assert cos[0] == 1 and sin[0] == 0 and np.signbit(sin[0]) == np.signbit(zero[0])
    z = np.linspace(-0.99, 0.99, 199).astype(complex)
    z.imag = zero[0]
    for dom in MAPS:
        w = dom.eval(z)
        assert np.all(w.imag == 0) and np.all(np.signbit(w.imag) == (sign < 0))


def _cauchy_coefficients(dom, order: int, count: int = 256) -> np.ndarray:
    """Taylor coefficients 0..order of dom by a 40-digit Cauchy sum on |z| = 1/2."""
    with mpmath.workdps(40):
        r = mpmath.mpf(1) / 2
        roots = [mpmath.expjpi(mpmath.mpf(2 * m) / count) for m in range(count)]
        ref = mp_map(dom)
        samples = [ref(r * w) for w in roots]
        return np.array([
            complex(mpmath.fsum(samples[m] * roots[-m * p % count] for m in range(count)) / (count * r**p))
            for p in range(order + 1)
        ])


@pytest.mark.parametrize("k", [0.5, 1.0])
def test_conic_taylor_to_order_64_matches_cauchy_sum(k):
    dom = ConicSection(k)
    got = np.array(dom.taylor(64).coeffs)
    assert got.shape == (65,)
    assert np.max(np.abs(got - _cauchy_coefficients(dom, 64))) <= KUCV_TAYLOR_BOUND
