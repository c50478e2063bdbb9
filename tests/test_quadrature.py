"""Adaptive contour quadrature against termwise and closed-form integrals."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from schurvar import QuadratureConfig, QuadratureError, Sector, integrate_segment, q_point
from schurvar.quadrature import _MAX_PANELS, _SIZES, _gauss, _gauss_segment, _rule
from schurvar.regions import _q_eps


def test_gauss_nodes_and_weights_match_numpy():
    x, wk, wd = _rule()
    gx, gw = np.polynomial.legendre.leggauss(15)
    assert np.max(np.abs(x[1::2] - gx)) <= 1e-15
    assert np.max(np.abs((wk - wd)[1::2] - gw)) <= 1e-15
    # The Kronrod-only nodes carry no Gauss weight.
    assert np.array_equal(wk[::2], wd[::2])
    # The planned kernel's rule is the Gauss half of the pair.
    x15, w15 = _gauss(15)
    assert np.array_equal(x15, x[1::2])
    assert np.max(np.abs(w15 - gw)) <= 1e-15


@mpmath.workdps(40)
def _mp_gauss(n):
    """The n-point Gauss-Legendre rule in 40 digits, nodes ascending:
    Newton's method on P_n from the Chebyshev-like first guesses."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = -mpmath.cos(mpmath.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = mpmath.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            x, step = x - p1 / dp, p1 / dp
            if abs(step) < mpmath.mpf(10) ** -45:
                break
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", _SIZES)
def test_gauss_rule_is_correctly_rounded(n):
    x, w = _gauss(n)
    assert x.shape == w.shape == (n,)
    for got, want in zip(np.concatenate([x, w]).tolist(), sum(_mp_gauss(n), [])):
        # Within half an ulp of the 40-digit value (0 is exact).
        assert abs(mpmath.mpf(got) - want) <= math.ulp(got) / 2, (got, want)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.all(w > 0) and np.array_equal(w, w[::-1])
    for k in range(2 * n):
        want = 0.0 if k % 2 else 2 / (k + 1)
        assert abs(w @ x**k - want) <= 1e-15, k


@pytest.mark.parametrize("n", _SIZES)
def test_gauss_bound_covers_chebyshev_polynomials(n):
    # T_{2n} is the first Chebyshev polynomial the n-point rule misses,
    # and on E_rho |T_{2n}| <= M = (rho^2n + rho^-2n)/2.  The planner's
    # bound (64/15) M rho^(2 - 2n)/(rho^2 - 1) covers its error; with
    # rho^-2n in place of rho^(2 - 2n), as once planned, it would not.
    x, w = _gauss(n)
    err = abs(w @ np.cos(2 * n * np.arccos(x)) - 2 / (1 - 4 * n * n))
    assert err > 1.5
    for rho in (1.5, 2.0, 5.0):
        m = (rho ** (2 * n) + rho ** (-2 * n)) / 2
        assert err <= (64 / 15) * m * rho ** (2 - 2 * n) / (rho * rho - 1)
    assert err > (64 / 15) * m * rho ** (-2 * n) / (rho * rho - 1)


def _reference_plan(a, b, r, sup, tol):
    """(n, bound) per panel of [a, b], written out from the planner's
    contract: the fewest nodes whose Gauss bound on the panel's ellipse,
    rho 0.8 of the way to the one touching |zeta| = 1, meets tol (b - a);
    halves only where 30 nodes miss."""
    c, h = (a + b) / 2, (b - a) / 2
    half = (1 / r - c) / h
    rho = 1 + 0.8 * (half + math.sqrt(half * half - 1) - 1)
    m = sup(r * (c + h * (rho + 1 / rho) / 2))
    for n in (10, 15, 20, 30):
        bound = r * h * (64 / 15) * m * rho ** (2 - 2 * n) / (rho * rho - 1)
        if bound <= tol * (b - a):
            return [(n, bound)]
    return _reference_plan(a, c, r, sup, tol) + _reference_plan(c, b, r, sup, tol)


@pytest.mark.parametrize("r", [0.3, 0.5, 0.8, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
def test_plan_takes_the_fewest_nodes_and_sums_their_bounds(r, tol):
    def sup(s):
        return 3 / (1 - s) ** 2

    rows = []

    def f(zeta):
        rows.append(zeta.shape)
        return np.ones_like(zeta)

    z_end = r * cmath.exp(0.4j)
    total, bound = _gauss_segment(f, z_end, sup, tol)
    want = _reference_plan(0.0, 1.0, r, sup, tol)
    assert rows == [(n, 1) for n, _ in want]
    assert bound == pytest.approx(math.fsum(e for _, e in want), rel=1e-12)
    assert abs(total[0] - z_end) <= 1e-15


def test_kronrod_weights_integrate_monomials_exactly():
    x, wk, _ = _rule()
    assert x.shape == (31,)
    for k in range(47):
        want = 0.0 if k % 2 else 2 / (k + 1)
        assert abs(wk @ x**k - want) <= 1e-15, k


def test_rule_is_symmetric_with_positive_weights():
    x, wk, wd = _rule()
    assert np.all(np.diff(x) > 0) and x[15] == 0.0
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(wk, wk[::-1]) and np.array_equal(wd, wd[::-1])
    assert np.all(wk > 0) and np.all((wk - wd)[1::2] > 0)
    assert abs(wd.sum()) <= 1e-15


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


@pytest.mark.parametrize("tols", [(math.nan, 1e-12), (1e-12, math.inf), (math.inf, 1e-12)], ids=str)
def test_config_rejects_non_finite_tolerances(tols):
    with pytest.raises(ValueError, match="^tolerances must be positive and finite$"):
        QuadratureConfig(*tols)


def test_divergent_integrand_raises_with_estimate():
    # Non-integrable pole on the path (off the dyadic node lattice, so
    # no evaluation lands on it exactly): subdivision gives up at the
    # panel cap.
    with pytest.raises(QuadratureError) as info:
        integrate_segment(lambda zeta: 1 / (0.51 - zeta), 1.0)
    err = info.value
    assert err.error_bound > 0
    assert cmath.isfinite(err.estimate)


def test_hopeless_budget_stops_at_the_panel_cap():
    # No panel count meets 1e-300, so bisection runs to the cap it shares
    # with the planned kernel: 64 panels from 2 * 64 - 1 = 127 calls.
    calls = []

    def f(zeta):
        calls.append(len(zeta))
        return np.exp(zeta)

    with pytest.raises(QuadratureError) as info:
        integrate_segment(f, 0.5, QuadratureConfig(1e-300, 1e-300))
    assert len(calls) <= 2 * _MAX_PANELS - 1 == 127
    assert f"{_MAX_PANELS} panels" in str(info.value)
    assert abs(info.value.estimate - (math.exp(0.5) - 1)) <= 1e-15


def test_with_context_keeps_the_fields():
    est, bound = np.array([1 + 2j, complex("nan")]), np.array([0.5, math.inf])
    err = QuadratureError("2 panels miss", est, bound, (1,))
    named = err.with_context("z0 = 0.5, domain halfplane:alpha=0")
    assert type(named) is QuadratureError
    assert str(named) == "2 panels miss; z0 = 0.5, domain halfplane:alpha=0"
    assert named.estimate is est and named.error_bound is bound and named.columns == (1,)
    assert str(err) == "2 panels miss"


def test_non_finite_integrand_raises():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError):
            integrate_segment(lambda zeta: 1 / (0.5 - zeta), 1.0)
        with pytest.raises(QuadratureError) as info:
            integrate_segment(lambda zeta: np.sqrt(zeta - 0.5) / 0, 1.0)
    assert "non-finite" in str(info.value)


def test_batch_columns_match_single_points():
    dom, gamma, j, z0 = Sector(0.5), (0.1, 0.3 - 0.2j), 0, 0.95 * cmath.exp(1.1j)
    eps = np.exp(2j * np.pi * np.arange(64) / 64)
    batch = _q_eps(dom, gamma, j, z0, eps, None)
    for e, q in zip(eps, batch):
        want = q_point(dom, gamma, j, z0, e)
        assert abs(q - want) <= 1e-14 * max(1.0, abs(want))


def _with_column(col):
    """Three columns on the (k, 1) nodes: zeta, col(k) and 1."""

    def f(zeta):
        return np.hstack([zeta, col(len(zeta))[:, None], np.ones_like(zeta)])

    return f


def _opposite_infinities(k):
    col = np.ones(k, dtype=complex)
    col[0], col[-1] = np.inf, -np.inf
    return col


NON_FINITE = pytest.mark.parametrize(
    "col",
    [_opposite_infinities, lambda k: np.full(k, 1e308, dtype=complex)],
    ids=["plus-and-minus-inf", "finite-overflow"],
)


@NON_FINITE
def test_non_finite_kronrod_sum_raises(col):
    # The finiteness test runs on the Kronrod sums: +inf and -inf at two
    # nodes sum to NaN, and 1e308 at every node overflows (the weights
    # sum to 2), though each value is finite.
    with pytest.raises(QuadratureError) as info:
        integrate_segment(lambda zeta: col(len(zeta)), 1.0)
    assert "non-finite" in str(info.value)


@NON_FINITE
@pytest.mark.parametrize("tol, n", [(1e-12, 10), (1e-40, 30)])
def test_non_finite_gauss_sum_names_only_its_column(col, tol, n):
    rows = []

    def f(zeta):
        rows.append(len(zeta))
        return _with_column(col)(zeta)

    with pytest.raises(QuadratureError) as info:
        _gauss_segment(f, 0.5, lambda s: 1.0, tol)
    # One panel, planned with n nodes.
    assert rows == [n]
    assert info.value.columns == (1,)
    assert "non-finite" in str(info.value) and "column(s) [1]" in str(info.value)
