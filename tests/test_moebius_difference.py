"""The region kernel's difference form for the Moebius targets.

For a map whose ``_eval`` is Janowski's, the kernel integrates
P(s_{gamma_0}(v)) - P(gamma_0) = v / (c + d v) over the value v below
the root, with no subtraction, so its values keep their relative
accuracy where the difference is small.  The references are mpmath at
40 and 60 digits, written from the closed forms of mp_maps, so they
never go through the kernel.
"""

import cmath
import functools

import mpmath
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from schurvar import HalfPlane, Janowski, RegionRequest, q_point, region_compute

from mp_maps import CATALOG, mp_map, mp_tower

MOEBIUS = [dom for dom, *_ in CATALOG if isinstance(dom, Janowski)]

# Data of length 1-3, gamma_0 = 0 and gamma_0 != 0.
DATA = ((0,), (0.4j,), (0, 0.3), (0.5, 0.2 - 0.3j), (0, 0.3, -0.2j), (0.2 + 0.1j, 0.3, -0.1j))


def test_small_endpoint_keeps_its_relative_accuracy():
    # Q = 0.6 z0 (1 + O(z0)); the subtraction P(w) - P(gamma_0) gave exactly 0.
    got = q_point(HalfPlane(), (0, 0.3), -1, 1e-20, 1)
    assert abs(got - 6e-21) <= 1e-14 * 6e-21


@pytest.mark.parametrize("dom", [HalfPlane(), Janowski(2, -1)], ids=lambda d: d.spec_string())
def test_near_rim_point_meets_its_budget(dom):
    # The integrand has its pole at zeta = 1, just past z0.
    p = mp_map(dom)
    with mpmath.workdps(40):
        g0 = mpmath.mpf(0.9)
        base = p(g0)
        want = mpmath.quad(
            lambda z: p((z + g0) / (1 + g0 * z)) - base, [0, 0.9, 0.99, 0.998, mpmath.mpf(0.999)]
        )
    assert abs(q_point(dom, (0.9,), 0, 0.999, 1) - complex(want)) <= 1e-12


@functools.cache
@mpmath.workdps(60)
def _nodes():
    """The 24-node Gauss-Legendre rule on [0, 1] at 60 digits."""
    return [((1 + x) / 2, w / 2) for x, w in GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)]


@mpmath.workdps(60)
def _references(dom, gamma, z0, eps, js):
    """Q_{gamma,j}(z0, eps) for each j in js, as z0^(j+2) int_0^1 t^j
    (P(omega(t z0)) - P(gamma_0)) / z0 dt on a 24-node Gauss-Legendre
    rule.  For |z0| <= 1e-3 the t-integrand is analytic on |t| < 1000,
    so the rule errs by far less than 1e-60 relative."""
    p, z0, eps = mp_map(dom), mpmath.mpc(z0), mpmath.mpc(eps)
    base = p(mpmath.mpc(gamma[0]))
    diffs = [(t, w, (p(mp_tower(gamma, t * z0, eps * t * z0)) - base) / z0) for t, w in _nodes()]
    return [complex(z0 ** (j + 2) * mpmath.fsum(w * t**j * g for t, w, g in diffs)) for j in js]


@pytest.mark.parametrize("dom", MOEBIUS, ids=lambda d: d.spec_string())
def test_small_endpoints_match_a_60_digit_reference(dom):
    eps, js = cmath.exp(0.7j), (-1, 0, 2)
    for r in (1e-20, 1e-8, 1e-3):
        z0 = r * cmath.exp(2.1j)
        for gamma in DATA:
            for j, want in zip(js, _references(dom, gamma, z0, eps, js)):
                got = q_point(dom, gamma, j, z0, eps)
                assert abs(got - want) <= 1e-14 * abs(want), (r, gamma, j, got, want)


@pytest.mark.parametrize("dom", MOEBIUS, ids=lambda d: d.spec_string())
def test_trace_evaluates_the_map_on_no_array(map_calls, dom):
    # map_calls patches the classes whose identity the kernel checks, so it
    # still takes the difference form.
    region_compute(RegionRequest(dom, (0.2 + 0.1j, 0.3), 0, 0.95 * cmath.exp(0.3j)))
    # P is evaluated at gamma_0 alone.
    shapes = [shape for _, shape, _ in map_calls]
    assert shapes and all(s == () for s in shapes)
