"""The a priori bounds that plan the region kernel's panels.

Three links, each checked on its own: the Schwarz-Pick climb on moduli
bounds every tower, each catalog map's max_modulus bounds |P| on a disk
(in test_map_contract.py), and the Gauss bound that the planner sums
bounds the kernel's error.
The last is checked against 50-digit references that never go through
the kernel: for data (0,) the Taylor oracle of test_taylor_oracle.py
(the domain's series, summed in mpmath), and for towers mpmath.quad of
the integrand written out in mpmath.  Loose budgets give few panels, so
the truncation error the bound covers stands far above the rounding it
does not cover.  The planner's bounds and the map calls are read through
the ``plans`` and ``map_calls`` probes of conftest.py.
"""

import cmath

import mpmath
import numpy as np
import pytest

from schurvar import (
    ConicSection, HalfPlane, Janowski, QuadratureConfig, QuadratureError, RegionRequest, Sector,
    membership_trial, q_point, region_compute,
)
from schurvar.schur import _climb

from mp_maps import CATALOG, SERIES_MAPS, mp_map, mp_tower, series_only


def test_climb_bound_bounds_every_tower():
    rng = np.random.default_rng(21)
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        mod = rng.uniform(0, 0.99, depth)
        gamma = tuple(complex(v) for v in mod * np.exp(2j * np.pi * rng.uniform(size=depth)))
        s = rng.uniform(0.01, 0.999)
        # |z| <= s, and a leaf w = u z with |u| <= 1; some on the circles.
        z = s * np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        u = np.sqrt(rng.uniform(size=500)) * np.exp(2j * np.pi * rng.uniform(size=500))
        z[:50] *= s / np.abs(z[:50])
        u[:100] /= np.abs(u[:100])
        top = np.max(np.abs(_climb(gamma, z, u * z)))
        moduli = tuple(abs(a) for a in gamma)
        assert top <= _climb(moduli, s, s) * (1 + 1e-15)


def test_climb_bound_is_attained_on_aligned_towers():
    # Real parameters of one sign and z = w = s: the climb of moduli is
    # the climb itself.
    for gamma in ((0.0,), (0.3, 0.5), (0.9, 0.2, 0.99)):
        for s in (0.2, 0.7, 0.999):
            want = abs(_climb(tuple(complex(v) for v in gamma), s, s))
            assert abs(_climb(tuple(abs(v) for v in gamma), s, s) - want) <= 1e-15 * want


def test_max_modulus_of_moebius_maps_is_attained():
    # |z| <= r maps onto a disk of centre c; the point of modulus
    # max_modulus(r) in the direction of c must be the image of a point of
    # |z| = r, its preimage (w - 1)/(A - B w).  alpha > 1/2, and A = -2
    # against B = -0.5 of the same argument, are where the triangle bound
    # (1 + |A| r)/(1 - |B| r) overshot.
    for dom in (HalfPlane(0.7), Janowski(-2, -0.5), Janowski(1 + 0.5j, -0.7j), Janowski(0.5, 1)):
        for r in (0.1, 0.5, 0.9):
            c = (1 - dom.A * dom.B.conjugate() * r * r) / (1 - abs(dom.B) ** 2 * r * r)
            w = c / abs(c) * dom.max_modulus(r)
            assert abs(abs((w - 1) / (dom.A - dom.B * w)) - r) <= 1e-13, (dom.spec_string(), r)


# ---- the planned kernel's bound against 50-digit references ----

# Orders with |z0|^order below 1e-22.
TAYLOR_ORDER = {0.9: 500, 0.95: 1000}


@mpmath.workdps(50)
def _tower_reference(dom, gamma, j, z0, eps):
    p, z0, eps = mp_map(dom), mpmath.mpc(z0), mpmath.mpc(eps)
    base = p(mpmath.mpc(gamma[0]))
    return complex(mpmath.quad(
        lambda zeta: zeta**j * (p(mp_tower(gamma, zeta, eps * zeta)) - base),
        [0, 0.9 * z0, z0],
    ))


@mpmath.workdps(50)
def _taylor_reference(terms, w):
    """sum_k terms[k] w^k for the terms p_k / k, k = order..1, by Horner."""
    w, out = mpmath.mpc(w), mpmath.mpf(0)
    for t in terms:
        out = (out + t) * w
    return complex(out)


TOWERS = (
    (HalfPlane(0.3), (0.2, 0.5j)),
    (Sector(0.5), (0.3j, 0.4, -0.2)),
    (Janowski(2, -1), (-0.1, 0.6)),
    (ConicSection(0.5), (0.2 - 0.2j, 0.3)),
    (ConicSection(1.0), (0.1, 0.2j)),
)


def _check(cases):
    """error <= bound + rounding in every case; truncation visible in most."""
    visible = 0
    for got, want, bound in cases:
        rounding = 1e-14 * max(1.0, abs(want))
        assert abs(got - want) <= bound + rounding, (got, want, bound)
        visible += abs(got - want) > 1e3 * rounding
    return visible


def test_gauss_bound_covers_the_taylor_oracle(plans):
    cases = []
    for name in sorted(SERIES_MAPS):
        dom = SERIES_MAPS[name]()
        coeffs = series_only(SERIES_MAPS[name]).taylor(max(TAYLOR_ORDER.values())).coeffs
        for r, order in TAYLOR_ORDER.items():
            with mpmath.workdps(50):
                terms = [mpmath.mpc(coeffs[k]) / k for k in range(order, 0, -1)]
            for eps in (1.0, cmath.exp(2j)):
                want = _taylor_reference(terms, eps * r)
                for tol in (1e-1, 1e-2, 1e-3):
                    got = q_point(dom, (0,), -1, r, eps, QuadratureConfig(tol, tol))
                    cases.append((got, want, plans[-1][1]))
    assert len(cases) == 60
    assert _check(cases) >= 20


def _toward_pole(gamma, eps):
    """The direction of a point of the unit circle where the tower over
    the leaf eps zeta takes the value 1, P's singularity."""
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    return zeta[np.argmin(np.abs(_climb(gamma, zeta, eps * zeta) - 1))]


def test_gauss_bound_covers_tower_quadrature(plans):
    cases = []
    eps = cmath.exp(0.7j)
    for dom, gamma in TOWERS:
        ray = _toward_pole(gamma, eps)
        for j, r in ((-1, 0.95), (0, 0.9), (1, 0.95)):
            got = q_point(dom, gamma, j, r * ray, eps, QuadratureConfig(1e-1, 1e-1))
            cases.append((got, _tower_reference(dom, gamma, j, r * ray, eps), plans[-1][1]))
    assert len(cases) == 15
    assert _check(cases) >= 10


def test_near_rim_point_meets_a_tight_budget():
    # The budget lies below the rounding noise of the integrand near its
    # pole at 1; the plan reads no values, so noise cannot make it bisect.
    want = _tower_reference(HalfPlane(), (0, 0.3, 0.1), -1, 0.999, 1)
    got = q_point(HalfPlane(), (0, 0.3, 0.1), -1, 0.999, 1, QuadratureConfig(1e-13, 1e-13))
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("dom", [dom for dom, *_ in CATALOG[::3]], ids=lambda d: d.spec_string())
def test_tower_bound_rounded_onto_the_rim_raises_before_any_evaluation(map_calls, dom):
    # The climb of moduli rounds to 1 at |z0|, so every plan's last panel
    # is unbounded; the kernel says so before it evaluates anything.
    with pytest.raises(QuadratureError, match=r"rounds onto the rim") as info:
        q_point(dom, (1 - 2**-53,), 0, 0.99, 1)
    assert str(info.value).endswith(f"z0 = (0.99+0j), j = 0, domain {dom.spec_string()}")
    assert map_calls == []


# The tower bound reads 0.9999999999999999 at this |z0|, yet one climbed
# value of the trace and of the membership leaves rounds onto the rim.
RIM_GAMMA = (0.9052495005428142 + 0.42487872540170857j,)
RIM_Z0 = -0.9403465207915329 + 0.3402181956343996j


def test_climbed_value_on_the_rim_is_a_quadrature_error():
    tail = f"z0 = {RIM_Z0}, j = 0, domain halfplane:alpha=0"
    with pytest.raises(QuadratureError, match=r"a tower value rounds onto the rim") as info:
        region_compute(RegionRequest(HalfPlane(), RIM_GAMMA, 0, RIM_Z0, samples=8))
    assert str(info.value).endswith(tail)
    with pytest.raises(QuadratureError, match=r"a tower value rounds onto the rim") as info:
        membership_trial(HalfPlane(), RIM_GAMMA, 0, RIM_Z0, trials=3, seed=1)
    assert str(info.value).endswith(tail)


@pytest.mark.parametrize(
    "dom", [HalfPlane(), Sector(0.5), Janowski(2, -1), ConicSection(0.5)], ids=lambda d: d.kind
)
def test_kernel_checks_the_rim_itself_outside_the_margin(map_calls, dom):
    # The tower bound of data (0.5,) lies 0.7e-9 inside the rim, closer
    # than the margin: the kernel checks every climbed value itself and
    # still evaluates the map through _eval alone.
    q_point(dom, (0.5,), 0, 1 - 2e-9, 1)
    arrays = [(name, top) for name, shape, top in map_calls if shape]
    assert arrays and all(name == "_eval" and top < 1 for name, top in arrays)


# Data of length 1-3, gamma_0 = 0 and gamma_0 != 0.
GUARD_DATA = ((0,), (0.4j,), (0, 0.3), (0.5, 0.2 - 0.3j), (0, 0.3, -0.2j), (0.2 + 0.1j, 0.3, -0.1j))


def _traces(dom):
    return [
        region_compute(RegionRequest(dom, data, j, r * cmath.exp(2.1j), samples=16)).polygon.points
        for data in GUARD_DATA for j in (-1, 0, 2) for r in (0.5, 0.95, 0.999)
    ]


@pytest.mark.parametrize("dom", [dom for dom, *_ in CATALOG], ids=lambda d: d.spec_string())
def test_kernel_skips_the_guard_only_where_no_value_reaches_the_rim(request, dom):
    # The kernel calls _eval unguarded, and checks |w| < 1 itself only where
    # its tower bound lies near the rim; every argument must still be what
    # the guard lets through.
    want = _traces(dom)
    map_calls = request.getfixturevalue("map_calls")
    assert np.array(_traces(dom)).tobytes() == np.array(want).tobytes()
    assert all(top < 1 for name, _, top in map_calls if name == "_eval")


@pytest.mark.parametrize("dom", [dom for dom, *_ in CATALOG], ids=lambda d: d.spec_string())
def test_trace_calls_the_guarded_eval_on_no_array(map_calls, dom):
    region_compute(RegionRequest(dom, (0.2 + 0.1j, 0.3), 0, 0.95 * cmath.exp(0.3j)))
    shapes = [shape for name, shape, _ in map_calls if name == "eval"]
    assert shapes == [()]


# Nodes per boundary point, panel by panel, for data (0, 0.3) and j = -1
# at z0 = r e^{0.3i} and the default budget.
NODES_PER_POINT = (
    (HalfPlane(), {0.5: [10], 0.8: [20], 0.95: [10, 10, 30], 0.99: [10, 10, 10, 10, 30]}),
    (Sector(0.5), {0.5: [10], 0.8: [20], 0.95: [10, 30], 0.99: [10, 10, 10, 10, 30]}),
)


@pytest.mark.parametrize("dom, nodes", NODES_PER_POINT, ids=["halfplane", "sector"])
def test_nodes_per_boundary_point(plans, dom, nodes):
    for r, want in nodes.items():
        plans.clear()
        region_compute(RegionRequest(dom, (0, 0.3), -1, r * cmath.exp(0.3j), samples=16))
        rows = [n for panel_nodes, _ in plans for n in panel_nodes]
        assert rows == want, r
