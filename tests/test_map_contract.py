"""The contract every map of ``mp_maps.CATALOG`` keeps.

The paper's regions are exact when the domain P(disk) is convex, so a
circle near the rim must map onto a convex polygon inside the domain.
Each clause of the contract is one test over the whole catalog, so a
failure names both the map and the clause it breaks.
"""

import mpmath
import numpy as np
import pytest

from schurvar import make_domain, polygon_convexity
from schurvar.cli import parse_domain

from mp_maps import CATALOG, mp_map
from test_domain_accuracy import POINTS

_rng = np.random.default_rng(34)
DISK = 0.99 * np.sqrt(_rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * _rng.uniform(0, 1, 200))
CIRCLE = np.exp(2j * np.pi * np.arange(4096) / 4096)
# Every signed zero, points near the origin, the negative axis from either
# side, and a point where libm's pow once rounded a square of _ell off.
EDGE = np.concatenate([
    [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)], POINTS["origin"],
    POINTS["negative axis"], [0.06220119171036783 - 0.2709785694421813j],
])

every_map = pytest.mark.parametrize(
    "dom, inside, tight", CATALOG, ids=[d.spec_string() for d, *_ in CATALOG])


@every_map
def test_map_is_normalized_at_zero(dom, inside, tight):
    assert dom.eval(0) == 1 and dom.taylor(0).coeffs == (1,)


@every_map
def test_eval_matches_its_own_taylor_series(dom, inside, tight):
    coeffs = np.array(dom.taylor(64).coeffs)
    half = 0.5 * CIRCLE[::64]
    w = dom.eval(half)
    assert np.all(np.abs(w - np.polyval(coeffs[::-1], half)) <= 1e-12 * np.maximum(1, np.abs(w)))


@every_map
def test_eval_matches_mpmath(dom, inside, tight):
    with mpmath.workdps(30):
        want = np.array([complex(mp_map(dom)(mpmath.mpc(z.real, z.imag))) for z in DISK[:50]])
    assert np.all(np.abs(dom.eval(DISK[:50]) - want) <= 1e-14 * np.maximum(1, np.abs(want)))


@every_map
def test_values_lie_in_the_convex_domain(dom, inside, tight):
    rim = dom.eval((1 - 1e-6) * CIRCLE)
    assert np.all(inside(dom.eval(DISK))) and np.all(inside(rim))
    assert polygon_convexity(rim)


@every_map
def test_max_modulus_bounds_the_map_on_its_circle(dom, inside, tight):
    for r in (0.0, 0.1, 0.5, 0.9, 0.99):
        top = float(np.max(np.abs(dom.eval(r * CIRCLE))))
        assert top <= dom.max_modulus(r) * (1 + 1e-13), r
        assert not tight or abs(dom.max_modulus(r) - top) <= 1e-12 * top, r
    # A tight bound is P(r), the maximum when the coefficients are positive.
    coeffs = np.array(dom.taylor(64).coeffs)
    assert not tight or (np.all(coeffs.imag == 0) and np.all(coeffs.real > 0))


@every_map
def test_max_modulus_rejects_radii_outside_the_disk(dom, inside, tight):
    for r in (-0.5, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="^max_modulus radius must satisfy 0 <= r < 1$"):
            dom.max_modulus(r)


@every_map
def test_spec_string_rebuilds_the_map(dom, inside, tight):
    back = make_domain(parse_domain(dom.spec_string()))
    assert type(back) is type(dom) and all(getattr(back, n) == getattr(dom, n) for n in dom.params)


@every_map
def test_eval_rejects_points_off_the_disk(dom, inside, tight):
    # |nan| < 1 is False: NaN fails the guard too.
    for z in (1.0, 1.5j, complex("nan"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError):
            dom.eval(z)
        with pytest.raises(ValueError):
            dom.eval(np.array([0.1, z]))
    assert dom.eval(np.array([], dtype=complex)).shape == (0,)


@every_map
def test_eval_never_writes_its_argument(dom, inside, tight):
    # An array, a strided view and a 0-d array come back unchanged and
    # share no memory with the result; a view gives its copy's bits.
    block = DISK[:50].reshape(5, 10)
    for z in (block, block[1:, ::3], np.asarray(block[2, 3])):
        before = z.tobytes()
        assert not np.shares_memory(dom.eval(z), z) and z.tobytes() == before
    assert dom.eval(block[1:, ::3]).tobytes() == dom.eval(block[1:, ::3].copy()).tobytes()
    assert type(dom.eval(np.asarray(block[2, 3]))) is complex


@every_map
def test_point_gives_the_array_bits(dom, inside, tight):
    zs = np.concatenate([DISK, EDGE])
    points = [dom.eval(complex(z)) for z in zs]
    assert all(type(p) is complex for p in points)
    assert np.array(points).tobytes() == dom.eval(zs).tobytes()
