"""Region engine: pointwise integrals, variants, and polygon geometry.

Every numeric expectation is a closed-form antiderivative evaluated
in-test, so the quadrature/tower pipeline is checked against formulas
that never see the library's own code path.
"""

import cmath
import math

import numpy as np
import pytest

from schurvar import (
    Classification,
    ConicSection,
    HalfPlane,
    Janowski,
    RegionPolygon,
    RegionRequest,
    Sector,
    hausdorff,
    integrate_segment,
    k_primitive,
    polygon_convexity,
    polygon_signed_distance,
    q_point,
    region_compute,
    single_point_value,
)
from schurvar import regions
from schurvar.oracle import gronwall_curve, membership_trial

HP = HalfPlane()


def theta_grid(n):
    """The trace grid theta_m = -pi + 2 pi m / n by the scalar formula."""
    return tuple(-math.pi + 2 * math.pi * m / n for m in range(n))


def regular_polygon(sides, radius=1.0, center=0j):
    return tuple(
        center + radius * cmath.exp(1j * t) for t in theta_grid(sides)
    )


def _wrap(points):
    n = len(points)
    return RegionPolygon(
        points=tuple(points), thetas=theta_grid(n), z0=0.5, j=-1, gamma=(0j,)
    )


def _traced_thetas(n):
    return region_compute(RegionRequest(HP, (0j,), -1, 0.5, samples=n)).polygon.thetas


def test_theta_grid_structure():
    g = _traced_thetas(8)
    assert len(g) == 8
    assert g[0] == -math.pi
    steps = {round(b - a, 15) for a, b in zip(g, g[1:])}
    assert len(steps) == 1
    assert g[-1] < math.pi
    with pytest.raises(ValueError):
        RegionRequest(HP, (0j,), -1, 0.5, samples=7)
    with pytest.raises(ValueError):
        gronwall_curve(0.5, 0.3, samples=7)


@pytest.mark.parametrize("n", [8, 32, 64, 256, 1000, 4096])
def test_theta_grid_matches_scalar_formula_bit_for_bit(n):
    assert _traced_thetas(n) == theta_grid(n)


def test_q_point_single_zero_closed_form():
    # Leaf map eps*z: the integrand collapses to 2 eps/(1 - eps zeta).
    got = q_point(HP, (0j,), -1, 0.5, 1.0)
    assert abs(got - 2 * math.log(2)) <= 1e-11
    eps = cmath.exp(0.9j)
    got = q_point(HP, (0j,), -1, 0.6, eps)
    assert abs(got - (-2 * cmath.log(1 - eps * 0.6))) <= 1e-11


def test_q_point_double_zero_closed_form():
    got = q_point(HP, (0j, 0j), -1, 0.6, 1.0)
    assert abs(got - (-math.log(1 - 0.36))) <= 1e-11
    eps = cmath.exp(-2.2j)
    z0 = 0.55 * cmath.exp(0.4j)
    got = q_point(HP, (0j, 0j), -1, z0, eps)
    assert abs(got - (-cmath.log(1 - eps * z0 * z0))) <= 1e-11


def test_q_point_weight_zero_closed_form():
    eps = cmath.exp(0.7j)
    z0 = 0.5
    got = q_point(HP, (0j,), 0, z0, eps)
    want = -2 * z0 - (2 / eps) * cmath.log(1 - eps * z0)
    assert abs(got - want) <= 1e-11


def test_q_point_weight_one_closed_form():
    eps = 0.8 * cmath.exp(-0.3j)
    z0 = 0.45 + 0.3j
    got = q_point(HP, (0j,), 1, z0, eps)
    want = -z0 * z0 - 2 * z0 / eps - (2 / eps**2) * cmath.log(1 - eps * z0)
    assert abs(got - want) <= 1e-11


def test_q_point_conjugation_symmetry():
    eps = cmath.exp(1.3j)
    for data in ((0j, 0.3), (0.2, -0.1, 0.05)):
        a = q_point(HP, data, -1, 0.5, eps)
        b = q_point(HP, data, -1, 0.5, eps.conjugate())
        assert abs(b - a.conjugate()) <= 1e-11


def test_q_point_validation():
    with pytest.raises(ValueError):
        q_point(HP, (0j,), -2, 0.5, 1.0)
    with pytest.raises(ValueError):
        q_point(HP, (0j,), -1, 0.0, 1.0)
    with pytest.raises(ValueError):
        q_point(HP, (0j,), -1, 1.0, 1.0)


def test_q_point_vanishes_with_endpoint():
    assert abs(q_point(HP, (0.3,), -1, 1e-6, 1.0)) < 1e-5


def test_q_point_zero_data_matches_direct_power_map():
    # All-zero parameters collapse the tower to eps * zeta^n, so the
    # integral can be recomputed without any tower machinery.
    z0, eps = 0.55 - 0.2j, cmath.exp(0.8j)
    for dom in (HP, Janowski(0.5, -0.5)):
        for n in (1, 2, 3):
            got = q_point(dom, (0j,) * n, -1, z0, eps)

            def direct(zeta, dom=dom, n=n):
                return (dom.eval(eps * zeta**n) - 1) / zeta

            assert abs(got - integrate_segment(direct, z0)) <= 1e-11


def test_k_primitive_equals_unit_leaf_integral():
    # On a domain with no elementary antiderivative the primitive must
    # still agree with the single-zero integral at unit multiplier.
    d = Sector(0.5)
    for z in (0.4, -0.25 + 0.45j):
        assert abs(k_primitive(d, z) - q_point(d, (0j,), -1, z, 1.0)) <= 1e-11


def test_k_primitive_closed_forms():
    assert k_primitive(HP, 0) == 0j
    for z in (0.5, 0.3 - 0.6j, -0.85):
        assert abs(k_primitive(HP, z) - (-2 * cmath.log(1 - z))) <= 1e-11
    # Lowered half-plane: the log picks up the 2(1 - alpha) factor.
    d = HalfPlane(0.25)
    z = 0.4 + 0.2j
    assert abs(k_primitive(d, z) - (-1.5 * cmath.log(1 - z))) <= 1e-11
    # Bounded image: ((A-B)/B) log(1 + B z).
    d = Janowski(0.5, -0.5)
    assert abs(k_primitive(d, z) - (-2 * cmath.log(1 - 0.5 * z))) <= 1e-11


def test_region_interior_variant():
    req = RegionRequest(HP, (0j, 0.3), -1, 0.5, samples=64)
    res = region_compute(req)
    assert res.is_region
    assert res.schur.classification is Classification.INTERIOR
    poly = res.polygon
    assert len(poly.points) == 64
    assert poly.thetas == theta_grid(64)
    assert poly.z0 == 0.5
    assert poly.j == -1
    assert polygon_convexity(poly)


def test_region_boundary_variant_closed_form():
    # Data (0.5, 0.75) parametrizes the head transform at modulus one:
    # the single attainable value is -6 log(1 - z0) for weight -1.
    res = region_compute(RegionRequest(HP, (0.5, 0.75), -1, 0.5))
    assert res.is_single_point
    assert res.schur.classification is Classification.BOUNDARY
    assert abs(res.w0 - (-6 * cmath.log(0.5))) <= 1e-10
    res = region_compute(RegionRequest(HP, (0.5, 0.75), 0, 0.5))
    want = 6 * (-0.5 - cmath.log(0.5))
    assert abs(res.w0 - want) <= 1e-10


def test_region_boundary_zero_head_closed_form():
    # Data (0, c1) with |c1| = 1: the rigid map is c1 * zeta, so the
    # value integrates 2 c1 / (1 - c1 zeta).
    res = region_compute(RegionRequest(HP, (0j, 1j), -1, 0.5))
    assert res.is_single_point
    assert abs(res.w0 - (-2 * cmath.log(1 - 0.5j))) <= 1e-10


def test_region_boundary_head_only_is_zero():
    # Unimodular head: the truncated tower is constant, so the
    # integrand vanishes identically and no domain evaluation happens.
    res = region_compute(RegionRequest(HP, (1.0, 0.0), 0, 0.5))
    assert res.is_single_point
    assert res.w0 == 0j


def test_single_point_value_head_prefix_short_circuit():
    assert single_point_value(HP, (1.0,), -1, 0.5) == 0j


def test_region_empty_variant():
    res = region_compute(RegionRequest(HP, (1.0, 0.5), -1, 0.5))
    assert res.is_empty
    assert res.schur.classification is Classification.EXTERIOR
    assert res.polygon is None and res.w0 is None


def test_region_tiny_endpoint_still_traces():
    res = region_compute(RegionRequest(HP, (0j, 0.3), -1, 1e-3, samples=16))
    assert res.is_region
    assert len(set(res.polygon.points)) == 16


def test_region_request_validation():
    with pytest.raises(ValueError):
        RegionRequest(HP, (), -1, 0.5)
    with pytest.raises(ValueError):
        RegionRequest(HP, (0j,), -1, 0.0)
    with pytest.raises(ValueError):
        RegionRequest(HP, (0j,), -1, 1.2)
    with pytest.raises(ValueError):
        RegionRequest(HP, (0j,), -3, 0.5)
    with pytest.raises(ValueError):
        RegionRequest(HP, (0j,), -1, 0.5, samples=4)


def test_polygon_needs_three_points():
    with pytest.raises(ValueError):
        RegionPolygon(points=(0j, 1j), thetas=(0.0, 1.0), z0=0.5, j=-1, gamma=(0j,))


def test_polygon_convexity_synthetic():
    assert polygon_convexity(regular_polygon(64))
    dented = (0j, 1 + 0j, 0.1 + 0.1j, 1j)
    assert not polygon_convexity(dented)
    # A collinear triple on one edge stays convex under the tolerance band.
    square = (0j, 1 + 0j, 2 + 0j, 2 + 2j, 0 + 2j)
    assert polygon_convexity(square)


def test_polygon_signed_distance_regular():
    poly = _wrap(regular_polygon(64))
    # Interior: apothem distance, negative sign.
    assert abs(polygon_signed_distance(poly, 0j) + math.cos(math.pi / 64)) <= 1e-9
    # Exterior along a vertex ray.
    assert abs(polygon_signed_distance(poly, 2.0 + 0j) - 1.0) <= 1e-9
    # On a vertex.
    assert abs(polygon_signed_distance(poly, -1.0 + 0j)) <= 1e-12


def test_polygon_contains_tolerance():
    poly = _wrap(regular_polygon(64))
    # Containment within tol is a signed distance <= tol. Along an
    # edge-midpoint ray the boundary sits at the apothem, so a probe at
    # apothem + delta lies delta outside; vertex rays reach out to the
    # full circumradius.
    ray = cmath.exp(1j * math.pi / 64)
    apothem = math.cos(math.pi / 64)
    for delta in (0.5e-6, 2e-6, -0.5e-6):
        assert abs(polygon_signed_distance(poly, (apothem + delta) * ray) - delta) <= 1e-12
    assert polygon_signed_distance(poly, (apothem + 0.5e-6) * ray) <= 1e-6
    assert polygon_signed_distance(poly, (apothem + 2e-6) * ray) > 1e-6


def test_polygon_signed_distance_orientation_free():
    pts = regular_polygon(16)
    assert polygon_signed_distance(_wrap(pts), 0j) < 0
    assert polygon_signed_distance(_wrap(pts[::-1]), 0j) < 0


def test_hausdorff_translation_and_symmetry():
    a = regular_polygon(64)
    b = tuple(p + (0.01 + 0.02j) for p in a)
    d = hausdorff(a, b)
    assert abs(d - abs(0.01 + 0.02j)) <= 1e-12
    assert hausdorff(b, a) == d
    assert hausdorff(a, a) == 0.0


def test_hausdorff_scaling():
    a = regular_polygon(64)
    b = regular_polygon(64, radius=1.01)
    d = hausdorff(a, b)
    assert 0.009 <= d <= 0.0101


def test_traces_nest_with_growing_endpoint():
    inner = region_compute(RegionRequest(HP, (0j, 0.3), -1, 0.25, samples=64))
    outer = region_compute(RegionRequest(HP, (0j, 0.3), -1, 0.5, samples=64))
    worst = max(
        polygon_signed_distance(outer.polygon, p) for p in inner.polygon.points
    )
    assert worst < 0


def test_trace_vertices_sit_on_the_hull():
    # Each sampled value at unit multiplier is attained only there: drop
    # a vertex and it falls outside the hull of the remaining ones.
    res = region_compute(RegionRequest(HP, (0j, 0.6), -1, 0.5, samples=64))
    pts = res.polygon.points
    for m in (0, 17, 40):
        rest = pts[:m] + pts[m + 1 :]
        assert polygon_signed_distance(rest, pts[m]) > 0


def _plain_integrands(monkeypatch):
    # What a wrapper such as the benchmark's evaluation counter hands the
    # quadrature: a one-argument f(zeta) without ``take``, so refined
    # panels are evaluated in full and sliced.
    inner = regions.integrate_segment
    monkeypatch.setattr(
        regions, "integrate_segment", lambda f, z_end, cfg=None: inner(lambda zeta: f(zeta), z_end, cfg)
    )


@pytest.mark.parametrize("j", [-1, 0])
@pytest.mark.parametrize("dom", [HP, Sector(0.5), ConicSection(1.0)], ids=lambda d: d.spec_string())
def test_trace_is_bit_identical_without_take(monkeypatch, dom, j):
    req = RegionRequest(dom, (0j, 0.3, 0.1j), j, 0.95 * cmath.exp(0.4j), samples=256)
    want = region_compute(req).polygon.points
    _plain_integrands(monkeypatch)
    assert np.array_equal(region_compute(req).polygon.points, want)


def test_membership_is_bit_identical_without_take(monkeypatch):
    # Inflation -inf reports every trial with its integral.
    args = (Sector(0.5), (0.1, 0.3 - 0.2j), 0, 0.95j, 200, 4)
    want = membership_trial(*args, inflation=-math.inf).failures
    _plain_integrands(monkeypatch)
    got = membership_trial(*args, inflation=-math.inf).failures
    assert len(got) == 200 and got == want
