"""Adaptive contour quadrature against termwise and closed-form integrals."""

import cmath

import numpy as np
import pytest

from schurvar import QuadratureConfig, QuadratureError, Sector, integrate_segment, q_point
from schurvar.quadrature import _rule
from schurvar.regions import _q_eps

# (rule, Gauss order, degree of exactness of the Kronrod weights)
RULES = [(_rule(15), 7, 22), (_rule(31), 15, 46)]


@pytest.mark.parametrize("rule, n, degree", RULES, ids=["G7K15", "G15K31"])
def test_gauss_nodes_and_weights_match_numpy(rule, n, degree):
    x, wk, wd = rule
    gx, gw = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x[1::2] - gx)) <= 1e-15
    assert np.max(np.abs((wk - wd)[1::2] - gw)) <= 1e-15
    # The Kronrod-only nodes carry no Gauss weight.
    assert np.array_equal(wk[::2], wd[::2])


@pytest.mark.parametrize("rule, n, degree", RULES, ids=["G7K15", "G15K31"])
def test_kronrod_weights_integrate_monomials_exactly(rule, n, degree):
    x, wk, _ = rule
    assert x.shape == (2 * n + 1,)
    for k in range(degree + 1):
        want = 0.0 if k % 2 else 2 / (k + 1)
        assert abs(wk @ x**k - want) <= 1e-15, k


@pytest.mark.parametrize("rule, n, degree", RULES, ids=["G7K15", "G15K31"])
def test_rule_is_symmetric_with_positive_weights(rule, n, degree):
    x, wk, wd = rule
    assert np.all(np.diff(x) > 0) and x[n] == 0.0
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(wk, wk[::-1]) and np.array_equal(wd, wd[::-1])
    assert np.all(wk > 0) and np.all((wk - wd)[1::2] > 0)
    assert abs(wd.sum()) <= 1e-15


@pytest.mark.parametrize(
    "cfg, k",
    [(None, 31), (QuadratureConfig(1e-13, 1e-13), 31), (QuadratureConfig(1e-9, 1e-9), 15)],
    ids=["default", "1e-13", "1e-9"],
)
def test_budget_chooses_the_rule(cfg, k):
    shapes = []

    def spy(zeta):
        shapes.append(zeta.shape)
        return 1 / (0.96 - zeta)

    # The pole near the endpoint forces refined panels: they use the
    # first panel's rule too.
    got = integrate_segment(spy, 0.95, cfg)
    assert abs(got + cmath.log(1 - 0.95 / 0.96)) <= 1e-8
    assert len(shapes) > 1 and set(shapes) == {(k,)}


def test_monomials_integrate_exactly():
    z = 0.7 * cmath.exp(0.9j)
    for k in range(13):
        got = integrate_segment(lambda zeta, k=k: zeta**k, z)
        want = z ** (k + 1) / (k + 1)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_identity_integrand_up_imaginary_axis():
    assert abs(integrate_segment(lambda zeta: zeta, 1j) - (-0.5)) <= 1e-14
    assert abs(integrate_segment(lambda zeta: np.ones_like(zeta), 0.3 - 0.4j) - (0.3 - 0.4j)) <= 1e-15


def test_random_polynomial_matches_termwise_antiderivative():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    z = 0.85 * cmath.exp(-2.1j)

    def poly(zeta):
        return sum(c[k] * zeta**k for k in range(13))

    want = sum(c[k] * z ** (k + 1) / (k + 1) for k in range(13))
    assert abs(integrate_segment(poly, z) - want) <= 1e-12 * abs(want)


def test_zero_endpoint_short_circuits():
    calls = []

    def spy(zeta):
        calls.append(zeta)
        return 1.0

    assert integrate_segment(spy, 0) == 0j
    assert calls == []


def test_linearity():
    z = 0.6 + 0.3j
    f = np.exp
    g = lambda zeta: 1 / (1 - zeta / 2)
    lhs = integrate_segment(lambda zeta: 3 * f(zeta) - 2j * g(zeta), z)
    rhs = 3 * integrate_segment(f, z) - 2j * integrate_segment(g, z)
    assert abs(lhs - rhs) <= 1e-11


def test_geometric_closed_form():
    for z in (0.5, 0.3 - 0.6j, -0.8, 0.1 + 0.85j):
        got = integrate_segment(lambda zeta: 2 / (1 - zeta), z)
        assert abs(got - (-2 * cmath.log(1 - z))) <= 1e-12


def test_exponential_closed_form():
    z = 1.2 - 0.7j
    got = integrate_segment(np.exp, z)
    assert abs(got - (cmath.exp(z) - 1)) <= 1e-12


def test_near_endpoint_pole_converges():
    # Pole at 1, endpoint at 0.999: steep but integrable on the segment.
    got = integrate_segment(lambda zeta: 1 / (1 - zeta), 0.999)
    want = -cmath.log(1 - 0.999)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_tight_tolerance_is_honored():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-16)
    z = 0.4 + 0.2j
    got = integrate_segment(lambda zeta: np.cos(zeta), z, cfg)
    assert abs(got - cmath.sin(z)) <= 1e-13


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-12)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_depth=0)


def test_divergent_integrand_raises_with_estimate():
    # Non-integrable pole on the path (off the dyadic node lattice, so
    # no evaluation lands on it exactly): subdivision gives up at depth.
    with pytest.raises(QuadratureError) as info:
        integrate_segment(lambda zeta: 1 / (0.51 - zeta), 1.0)
    err = info.value
    assert err.error_bound > 0
    assert cmath.isfinite(err.estimate)


def test_shallow_depth_raises_sooner():
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-16, max_depth=2)
    with pytest.raises(QuadratureError):
        integrate_segment(lambda zeta: 1 / (1 - zeta), 0.9999, cfg)


def test_vector_integrand_integrates_each_column():
    z = 0.6 - 0.5j
    k = np.arange(6)
    got = integrate_segment(lambda zeta: np.exp(np.outer(zeta, k + 1)), z)
    want = (np.exp(z * (k + 1)) - 1) / (k + 1)
    assert got.shape == (6,)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_vector_columns_keep_their_own_relative_budget():
    # A huge smooth column beside a small steep one: the steep column
    # must meet rel_tol on its own scale, not on the huge column's.
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-12)
    z = 0.9
    got = integrate_segment(
        lambda zeta: np.stack([np.full_like(zeta, 1e12), 1 / (1 - zeta)], axis=1), z, cfg
    )
    want = -cmath.log(1 - z)
    assert abs(got[0] - 1e12 * z) <= 1e-12 * 1e12 * z
    assert abs(got[1] - want) <= 1e-11 * want


def test_failing_columns_are_named():
    cfg = QuadratureConfig(max_depth=2)
    poles = np.array([5.0, 0.51 + 1e-9j, 7.0])
    with pytest.raises(QuadratureError) as info:
        integrate_segment(lambda zeta: 1 / (poles - zeta[:, None]), 1.0, cfg)
    err = info.value
    assert err.columns == (1,)
    assert "column(s) [1]" in str(err)
    assert err.estimate.shape == (3,) and err.error_bound.shape == (3,)
    assert abs(err.estimate[0] + cmath.log(1 - 1 / 5.0)) <= 1e-12
    assert abs(err.estimate[2] + cmath.log(1 - 1 / 7.0)) <= 1e-12
    assert err.error_bound[0] <= 1e-12 and err.error_bound[1] > err.error_bound[0]


def test_non_finite_integrand_raises():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError):
            integrate_segment(lambda zeta: 1 / (0.5 - zeta), 1.0)
        with pytest.raises(QuadratureError) as info:
            integrate_segment(lambda zeta: np.stack([zeta, np.sqrt(zeta - 0.5) / 0], axis=1), 1.0)
    assert info.value.columns == (1,)


def _poles(cols=slice(None), calls=None):
    """1/(p - zeta) for poles p at growing distance past the endpoint 0.95,
    with ``take``; ``calls`` records the columns of every evaluation."""
    poles = 0.96 + 0.5 * np.arange(8) ** 2

    def f(zeta):
        if calls is not None:
            calls.append(np.arange(8)[cols])
        return 1 / (poles[cols] - zeta[:, None])

    f.take = lambda c: _poles(c, calls)
    return f


@pytest.mark.parametrize(
    "cfg", [QuadratureConfig(1e-9, 1e-9), QuadratureConfig()], ids=["G7K15", "G15K31"]
)
def test_refined_panels_evaluate_only_short_columns(cfg):
    calls = []
    got = integrate_segment(_poles(calls=calls), 0.95, cfg)
    poles = 0.96 + 0.5 * np.arange(8) ** 2
    err = np.max(np.abs(got + np.log(1 - 0.95 / poles)))
    assert err <= cfg.rel_tol * np.max(np.abs(got))
    # The first panel takes every column; the farthest pole meets its
    # budget there and is never evaluated again, and no refined panel
    # evaluates every column.
    assert calls[0].tolist() == list(range(8))
    assert all(c.size < 8 for c in calls[1:])
    assert 7 not in np.concatenate(calls[1:])
    assert sum(c.size for c in calls) < len(calls) * 8
    # Without take, refined panels are evaluated in full and sliced: the
    # sums must not change by a single bit.
    plain = _poles()
    assert np.array_equal(integrate_segment(lambda zeta: plain(zeta), 0.95, cfg), got)


def test_batch_columns_match_single_points():
    dom, gamma, j, z0 = Sector(0.5), (0.1, 0.3 - 0.2j), 0, 0.95 * cmath.exp(1.1j)
    eps = np.exp(2j * np.pi * np.arange(64) / 64)
    batch = _q_eps(dom, gamma, j, z0, eps, None)
    for e, q in zip(eps, batch):
        want = q_point(dom, gamma, j, z0, e)
        assert abs(q - want) <= 1e-14 * max(1.0, abs(want))


def test_non_finite_value_in_refined_panel_names_only_live_columns():
    # zeta = 0.75 is a node of the panel [0.5, 1] but not of [0, 1].
    # Column 0 is constant and converges on the first panel, so its
    # NaN there is never evaluated (with take) or is sliced away
    # (without); column 2 is still being refined and raises.
    def f(zeta):
        hole = np.where(zeta == 0.75, np.nan, 1.0)
        return np.stack([hole, 1 / (1.001 - zeta), hole / (1.001 - zeta)], axis=1)

    def taking(cols):
        g = lambda zeta: f(zeta)[:, cols]
        g.take = taking
        return g

    for integrand in (f, taking(slice(None))):
        with pytest.raises(QuadratureError) as info:
            integrate_segment(integrand, 1.0)
        assert info.value.columns == (2,)
        assert "column(s) [2]" in str(info.value)


def test_array_endpoints_match_scalar_calls():
    # One column per endpoint: near and far from the pole, tiny, and in
    # every direction; the near ones refine, the others stop early.
    ends = np.array([0.95, 1e-4, 0.3 - 0.4j, -0.9, 0.7j, 0.99 * cmath.exp(0.05j)])

    def g(zeta):
        return 1 / (1.001 - zeta) + zeta**2

    def taking(cols):
        h = lambda zeta: g(zeta)
        h.take = taking
        return h

    want = np.array([integrate_segment(g, e) for e in ends])
    for integrand in (g, taking(slice(None))):
        got = integrate_segment(integrand, ends)
        assert got.shape == ends.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_array_endpoints_must_be_nonzero():
    with pytest.raises(ValueError):
        integrate_segment(lambda zeta: zeta, np.array([0.5, 0, 0.3j]))
