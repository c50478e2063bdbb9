"""Coefficient constraints, the parameter bridge, and extremal functions.

The bridge formulas are checked by hand-inverted examples (solve the
forward relation for mu, feed the pair back) and by the extremal
pipeline: coefficients of the reconstructed extremal must return the
parameters they were built from, for every catalog domain and
independently of the leaf multiplier.
"""

import cmath

import numpy as np
import pytest

from schurvar import (
    INF,
    ConicSection,
    FixedA2,
    FixedA2A3,
    HalfPlane,
    Janowski,
    QuadratureConfig,
    QuadratureError,
    RegionRequest,
    Sector,
    VariabilityQuery,
    cv_region,
    extremal_coefficients,
    extremal_f_eval,
    gamma_from_a2,
    gamma_from_a2a3,
    k_primitive,
    polygon_signed_distance,
    q_point,
    region_compute,
    schur_parameters,
)
from schurvar import regions, variability

HP = HalfPlane()
CATALOG = (HP, Sector(0.5), Janowski(2, -1), ConicSection(1.0))


def test_gamma_from_a2_scales_by_alpha1():
    assert abs(gamma_from_a2(0.3, HP) - 0.3) <= 1e-15
    assert abs(gamma_from_a2(0.3, Sector(0.5)) - 0.6) <= 1e-15
    assert abs(gamma_from_a2(0.3, Janowski(2, -1)) - 0.2) <= 1e-15
    # Parabolic conic: alpha1 = 8/pi^2, so the extremal a2 is 4/pi^2.
    assert abs(gamma_from_a2(4 / np.pi**2, ConicSection(1.0)) - 1) <= 1e-12


def test_gamma_from_a2_saturates_at_half_alpha1():
    for dom in (HP, Sector(0.5), Janowski(2, -1)):
        half = abs(dom.alpha1) / 2
        assert abs(gamma_from_a2(0.98 * half, dom)) < 1
        assert abs(gamma_from_a2(1.02 * half, dom)) > 1


def test_gamma_from_a2a3_hand_inverted_examples():
    # a2 = 0, a3 = 1/3 on the basic half-plane forces gamma2 = 1.
    pair = gamma_from_a2a3(0.0, 1 / 3, HP)
    assert abs(pair.gamma1) == 0
    assert abs(pair.gamma2 - 1) <= 1e-13
    # a2 = 0.3: solving the forward relation for a3 at gamma2 = 0.1
    # gives 12 mu = 2*6*0.09 + 14.56*0.1/4, i.e. mu = 0.12033333...
    pair = gamma_from_a2a3(0.3, 0.12033333333333333, HP)
    assert abs(pair.gamma1 - 0.3) <= 1e-14
    assert abs(pair.gamma2 - 0.1) <= 1e-12


def test_gamma_from_a2a3_unimodular_collapse():
    # |gamma1| = 1 and the compatible a3: the region collapses to a point.
    pair = gamma_from_a2a3(1.0, 1.0, HP)
    assert abs(pair.gamma1 - 1) <= 1e-15
    assert pair.gamma2 == 0j
    # Same modulus, incompatible a3: nothing is attainable.
    pair = gamma_from_a2a3(1.0, 4 / 3, HP)
    assert pair.gamma2 is INF


@pytest.mark.parametrize("excess", [0.0, 5e-13, -5e-13, 5e-12, -5e-12])
def test_bridge_and_recursion_share_the_unimodular_band(excess):
    # The bridge collapses gamma2 exactly when the recursion stops at gamma1.
    pair = gamma_from_a2a3((1 + excess) * HP.alpha1 / 2, 0.3, HP)
    stops = schur_parameters((0j, pair.gamma1)).boundary_index == 1
    assert stops == (pair.gamma2 is INF) == (abs(excess) < 1e-12)


def test_cv_region_unconstrained_traces_k():
    q = VariabilityQuery(HP, 0.5)
    res = cv_region(q, samples=16)
    assert res.is_region
    for theta, p in zip(res.polygon.thetas, res.polygon.points):
        want = k_primitive(HP, cmath.exp(1j * theta) * 0.5)
        assert abs(p - want) <= 1e-12


def test_cv_region_fixed_a2_matches_engine():
    res = cv_region(VariabilityQuery(HP, 0.5, FixedA2(0.3)), samples=16)
    direct = region_compute(RegionRequest(HP, (0j, 0.3), -1, 0.5, samples=16))
    assert max(
        abs(a - b) for a, b in zip(res.polygon.points, direct.polygon.points)
    ) <= 1e-15


def test_cv_region_degenerate_variants():
    # Extremal a2 pins the function: single point, on the unconstrained trace.
    res = cv_region(VariabilityQuery(HP, 0.5, FixedA2(1.0)))
    assert res.is_single_point
    assert abs(res.w0 - (-2 * cmath.log(0.5))) <= 1e-10
    # Oversized a2: empty.
    assert cv_region(VariabilityQuery(HP, 0.5, FixedA2(1.2))).is_empty
    # Unimodular gamma1 through the two-coefficient bridge.
    res = cv_region(VariabilityQuery(HP, 0.5, FixedA2A3(1.0, 1.0)))
    assert res.is_single_point
    assert abs(res.w0 - k_primitive(HP, 0.5)) <= 1e-12
    assert cv_region(VariabilityQuery(HP, 0.5, FixedA2A3(1.0, 4 / 3))).is_empty


def test_cv_region_pinned_a3_single_point():
    # a2 = 0, a3 = 1/3: gamma2 lands on the unit circle, the rigid map
    # is zeta^2, and log f'(z0) = -log(1 - z0^2).
    res = cv_region(VariabilityQuery(HP, 0.5, FixedA2A3(0.0, 1 / 3)))
    assert res.is_single_point
    assert abs(res.w0 - (-cmath.log(0.75))) <= 1e-10


def test_trace_vertex_is_extremal_value():
    # A traced vertex reproduces the direct unit-multiplier integral
    # within the default quadrature bound (the batched trace and the
    # one-column call refine different panels), and dropping it leaves
    # it outside the remaining hull.
    res = cv_region(VariabilityQuery(HP, 0.5, FixedA2(0.3)), samples=64)
    pts = res.polygon.points
    m = 11
    eps = cmath.exp(1j * res.polygon.thetas[m])
    q = q_point(HP, (0j, 0.3), -1, 0.5, eps)
    assert abs(pts[m] - q) <= 1e-12 * max(1.0, abs(q))
    assert polygon_signed_distance(pts[:m] + pts[m + 1 :], pts[m]) > 0


def test_cv_region_endpoint_validation():
    with pytest.raises(ValueError):
        cv_region(VariabilityQuery(HP, 0.0))
    with pytest.raises(ValueError):
        cv_region(VariabilityQuery(HP, 1.0))


def test_extremal_coefficients_structure():
    co = extremal_coefficients(HP, (0.3,), 1.0, 5)
    assert co.coeffs[0] == 0j
    assert abs(co.coeffs[1] - 1) <= 1e-15
    assert abs(co.coeffs[2] - 0.3) <= 1e-14
    co = extremal_coefficients(Sector(0.5), (0.3,), 1.0, 3)
    # a2 = gamma1 alpha1 / 2 with alpha1 = 1.
    assert abs(co.coeffs[2] - 0.15) <= 1e-14


def test_extremal_third_coefficient_hand_value():
    co = extremal_coefficients(HP, (0.3, 0.1), 1.0, 3)
    assert abs(co.coeffs[3] - 0.12033333333333333) <= 1e-13


def test_extremal_coefficients_ignore_leaf_through_a3():
    for eps in (0.9, 0.3 * cmath.exp(2j)):
        co = extremal_coefficients(HP, (0.3 - 0.2j, 0.4j), eps, 3)
        assert abs(co.coeffs[2] - (0.3 - 0.2j)) <= 1e-13
        pair = gamma_from_a2a3(co.coeffs[2], co.coeffs[3], HP)
        assert abs(pair.gamma1 - (0.3 - 0.2j)) <= 1e-12
        assert abs(pair.gamma2 - 0.4j) <= 1e-12


def test_extremal_roundtrip_across_catalog():
    rng = np.random.default_rng(9)
    for dom in CATALOG:
        for _ in range(5):
            g1 = 0.85 * rng.uniform(0.1, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            g2 = 0.85 * rng.uniform(0.1, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            eps = rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            co = extremal_coefficients(dom, (g1, g2), eps, 3)
            pair = gamma_from_a2a3(co.coeffs[2], co.coeffs[3], dom)
            assert abs(pair.gamma1 - g1) <= 1e-10
            assert abs(pair.gamma2 - g2) <= 1e-10


def test_extremal_order_validation():
    with pytest.raises(ValueError):
        extremal_coefficients(HP, (0.3,), 1.0, 2)


def test_extremal_f_eval_rejects_non_finite_argument():
    with pytest.raises(ValueError, match=r"\|z\| < 1"):
        extremal_f_eval(HP, (0.3,), 1.0, complex("nan"))


def test_extremal_f_eval_normalization():
    assert extremal_f_eval(HP, (0.3,), 1.0, 0) == 0j
    f = extremal_f_eval(HP, (0.3,), 1.0, 1e-4)
    assert abs(f / 1e-4 - 1) < 1e-3


def test_extremal_f_eval_makes_one_kernel_call_per_outer_panel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("q_point called")

    monkeypatch.setattr(variability, "q_point", refuse)
    monkeypatch.setattr(regions, "q_point", refuse)
    kernel_calls, panels = [], []
    kernel = variability._q
    outer = variability.integrate_segment

    def counting_kernel(domain, gamma, j, z0, *rest):
        kernel_calls.append(np.shape(z0))
        return kernel(domain, gamma, j, z0, *rest)

    def counting_outer(f, z_end, cfg=None):
        def g(zeta):
            panels.append(zeta.shape)
            return f(zeta)

        return outer(g, z_end, cfg)

    monkeypatch.setattr(variability, "_q", counting_kernel)
    monkeypatch.setattr(variability, "integrate_segment", counting_outer)
    f = extremal_f_eval(HP, (0.3, 0.1), 1.0, 0.6j)
    assert kernel_calls == panels and len(panels) >= 1
    assert all(shape == (31,) for shape in panels)
    co = extremal_coefficients(HP, (0.3, 0.1), 1.0, 60)
    assert abs(f - sum(c * 0.6j**k for k, c in enumerate(co.coeffs))) <= 1e-12


def test_extremal_f_eval_failure_names_failing_nodes():
    with pytest.raises(QuadratureError) as info:
        extremal_f_eval(HP, (0.3,), 1.0, 0.95, QuadratureConfig(1e-300, 1e-300))
    text = str(info.value)
    assert "eps = (1+0j), z0 = [(" in text and "domain halfplane" in text


def test_extremal_f_eval_near_the_rim():
    # The inner integrals run at 1e-13, which near the pole at 1 sits
    # below the rounding noise an adaptive scheme reads; planned panels
    # meet it.  4.643040183851976 is the value of adaptive inner
    # integrals at the looser 1e-11.
    got = extremal_f_eval(HP, (0.3, 0.1), 1.0, 0.999)
    assert abs(got - 4.643040183851976) <= 1e-10


def test_extremal_f_eval_matches_series():
    gamma, eps, z = (0.3,), 1.0, 0.3
    f = extremal_f_eval(HP, gamma, eps, z)
    co = extremal_coefficients(HP, gamma, eps, 25)
    series_val = sum(c * z**k for k, c in enumerate(co.coeffs))
    assert abs(f - series_val) <= 1e-12
