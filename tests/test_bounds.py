"""The a priori bounds that plan the region kernel's panels.

Three links, each checked on its own: the Schwarz-Pick climb on moduli
bounds every tower, each catalog map's max_modulus bounds |P| on a disk,
and the Gauss bound that the planner sums bounds the kernel's error.
The last is checked against 50-digit references that never go through
the kernel: for data (0,) the Taylor oracle of test_taylor_oracle.py
(the domain's series, summed in mpmath), and for towers mpmath.quad of
the integrand written out in mpmath.  Loose budgets give few panels, so
the truncation error the bound covers stands far above the rounding it
does not cover.
"""

import cmath

import mpmath
import numpy as np
import pytest

from schurvar import (
    ConicSection, HalfPlane, Janowski, QuadratureConfig, QuadratureError, RegionRequest, Sector,
    q_point, region_compute,
)
from schurvar import quadrature, regions
from schurvar.schur import _climb, _climb_bound

from mp_maps import mp_map

CATALOG = (
    HalfPlane(0.0), HalfPlane(0.7), HalfPlane(-0.5),
    Sector(0.1), Sector(0.5), Sector(1.0),
    Janowski(2, -1), Janowski(-2, 0.5), Janowski(1 + 0.5j, -0.7j), Janowski(0.5, 1),
    ConicSection(0.0), ConicSection(0.5), ConicSection(1.0),
)
RADII = (0.0, 0.1, 0.5, 0.9, 0.99)


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
        assert top <= _climb_bound(gamma, s) * (1 + 1e-15)


def test_climb_bound_is_attained_on_aligned_towers():
    # Real parameters of one sign and z = w = s: the climb of moduli is
    # the climb itself.
    for gamma in ((0.0,), (0.3, 0.5), (0.9, 0.2, 0.99)):
        for s in (0.2, 0.7, 0.999):
            want = abs(_climb(tuple(complex(v) for v in gamma), s, s))
            assert abs(_climb_bound(gamma, s) - want) <= 1e-15 * want


@pytest.mark.parametrize("dom", CATALOG, ids=lambda d: d.spec_string())
def test_max_modulus_bounds_the_map_on_its_circle(dom):
    for r in RADII:
        z = r * np.exp(2j * np.pi * np.arange(2000) / 2000)
        top = float(np.max(np.abs(dom.eval(z))))
        bound = dom.max_modulus(r)
        assert top <= bound * (1 + 1e-13), r
        if isinstance(dom, (Sector, ConicSection)):
            # Positive Taylor coefficients: the maximum is P(r), at z = r.
            assert abs(bound - top) <= 1e-12 * top, r


def test_max_modulus_of_moebius_maps_is_an_upper_bound_only():
    # alpha > 1/2, and A = -2 against B = -0.5 of the same argument: the
    # maximum falls short of the triangle bound.
    for dom in (HalfPlane(0.7), Janowski(-2, -0.5)):
        z = 0.5 * np.exp(2j * np.pi * np.arange(2000) / 2000)
        assert np.max(np.abs(dom.eval(z))) < 0.99 * dom.max_modulus(0.5)


# ---- the planned kernel's bound against 50-digit references ----

# Orders with |z0|^order below 1e-22.
TAYLOR_ORDER = {0.9: 500, 0.95: 1000}


def _mp_tower(gamma, z, w):
    for a in gamma[:0:-1]:
        a = mpmath.mpc(a)
        w = z * (w + a) / (1 + mpmath.conj(a) * w)
    a = mpmath.mpc(gamma[0])
    return (w + a) / (1 + mpmath.conj(a) * w)


@mpmath.workdps(50)
def _tower_reference(dom, gamma, j, z0, eps):
    p, z0, eps = mp_map(dom), mpmath.mpc(z0), mpmath.mpc(eps)
    base = p(mpmath.mpc(gamma[0]))
    return complex(mpmath.quad(
        lambda zeta: zeta**j * (p(_mp_tower(gamma, zeta, eps * zeta)) - base),
        [0, 0.9 * z0, z0],
    ))


@mpmath.workdps(50)
def _taylor_reference(terms, w):
    """sum_k terms[k] w^k for the terms p_k / k, k = order..1, by Horner."""
    w, out = mpmath.mpc(w), mpmath.mpf(0)
    for t in terms:
        out = (out + t) * w
    return complex(out)


def _planned(monkeypatch):
    """The bounds the kernel's planner reaches, one per kernel call."""
    bounds = []
    plan = quadrature._gauss_segment

    def spy(*args):
        out = plan(*args)
        bounds.append(out[1])
        return out

    monkeypatch.setattr(regions, "_gauss_segment", spy)
    return bounds


TAYLOR_MAPS = ("halfplane:0.3", "janowski:2,-1", "kucv:0.5", "kucv:1", "sector:0.5")
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


def test_gauss_bound_covers_the_taylor_oracle(monkeypatch):
    from test_taylor_oracle import MAPS, _series_only

    bounds = _planned(monkeypatch)
    cases = []
    for name in TAYLOR_MAPS:
        dom = MAPS[name]()
        coeffs = _series_only(MAPS[name]).taylor(max(TAYLOR_ORDER.values())).coeffs
        for r, order in TAYLOR_ORDER.items():
            with mpmath.workdps(50):
                terms = [mpmath.mpc(coeffs[k]) / k for k in range(order, 0, -1)]
            for eps in (1.0, cmath.exp(2j)):
                want = _taylor_reference(terms, eps * r)
                for tol in (1e-1, 1e-2, 1e-3):
                    got = q_point(dom, (0,), -1, r, eps, QuadratureConfig(tol, tol))
                    cases.append((got, want, bounds[-1]))
    assert len(cases) == 60
    assert _check(cases) >= 20


def _toward_pole(gamma, eps):
    """The direction of a point of the unit circle where the tower over
    the leaf eps zeta takes the value 1, P's singularity."""
    zeta = np.exp(2j * np.pi * np.arange(4096) / 4096)
    return zeta[np.argmin(np.abs(_climb(gamma, zeta, eps * zeta) - 1))]


def test_gauss_bound_covers_tower_quadrature(monkeypatch):
    bounds = _planned(monkeypatch)
    cases = []
    eps = cmath.exp(0.7j)
    for dom, gamma in TOWERS:
        ray = _toward_pole(gamma, eps)
        for j, r in ((-1, 0.95), (0, 0.9), (1, 0.95)):
            got = q_point(dom, gamma, j, r * ray, eps, QuadratureConfig(1e-1, 1e-1))
            cases.append((got, _tower_reference(dom, gamma, j, r * ray, eps), bounds[-1]))
    assert len(cases) == 15
    assert _check(cases) >= 10


def test_near_rim_point_meets_a_tight_budget():
    # The budget lies below the rounding noise of the integrand near its
    # pole at 1; the plan reads no values, so noise cannot make it bisect.
    want = _tower_reference(HalfPlane(), (0, 0.3, 0.1), -1, 0.999, 1)
    got = q_point(HalfPlane(), (0, 0.3, 0.1), -1, 0.999, 1, QuadratureConfig(1e-13, 1e-13))
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("dom", CATALOG[::3], ids=lambda d: d.spec_string())
def test_tower_bound_rounded_onto_the_rim_raises_before_any_evaluation(monkeypatch, dom):
    # The climb of moduli rounds to 1 at |z0|, so every plan's last panel
    # is unbounded; the kernel says so before it evaluates anything.
    def unevaluated(z):
        raise AssertionError("evaluated")

    monkeypatch.setattr(dom, "_eval", unevaluated)
    with pytest.raises(QuadratureError, match=r"rounds onto the rim") as info:
        q_point(dom, (1 - 2**-53,), 0, 0.99, 1)
    assert str(info.value).endswith(f"z0 = (0.99+0j), j = 0, domain {dom.spec_string()}")


# Nodes per boundary point, panel by panel, for data (0, 0.3) and j = -1
# at z0 = r e^{0.3i} and the default budget.
NODES_PER_POINT = (
    (HalfPlane(), {0.5: [10], 0.8: [20], 0.95: [10, 10, 30], 0.99: [10, 10, 10, 10, 30]}),
    (Sector(0.5), {0.5: [10], 0.8: [20], 0.95: [10, 30], 0.99: [10, 10, 10, 10, 30]}),
)


@pytest.mark.parametrize("dom, nodes", NODES_PER_POINT, ids=["halfplane", "sector"])
def test_nodes_per_boundary_point(monkeypatch, dom, nodes):
    rows = []
    plan = quadrature._gauss_segment

    def spy(integrand, *args):
        return plan(lambda zeta: (rows.append(len(zeta)), integrand(zeta))[1], *args)

    monkeypatch.setattr(regions, "_gauss_segment", spy)
    for r, want in nodes.items():
        rows.clear()
        region_compute(RegionRequest(dom, (0, 0.3), -1, r * cmath.exp(0.3j), samples=16))
        assert rows == want, r
