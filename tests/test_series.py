"""Unit oracles for the truncated power-series layer.

Expected coefficient vectors here are short enough to multiply out by
hand; the property tests cover the algebra the hand values cannot.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schurvar import (
    ComplexSeries,
    series_compose,
    series_exp,
    series_mul,
    series_reciprocal,
)


def coeffs_close(s: ComplexSeries, expected, tol=1e-13):
    assert len(s) == len(expected)
    return max(abs(a - b) for a, b in zip(s.coeffs, expected)) <= tol


def test_mul_hand_value():
    # (1 + 2z + 3z^2)(1 + z) = 1 + 3z + 5z^2 + O(z^3)
    a = ComplexSeries((1, 2, 3))
    b = ComplexSeries((1, 1, 0))
    assert series_mul(a, b).coeffs == (1 + 0j, 3 + 0j, 5 + 0j)


def test_mul_truncates_to_smaller_order():
    a = ComplexSeries((1, 2, 3, 4))
    b = ComplexSeries((1, 1))
    assert series_mul(a, b).order == 1
    assert series_mul(a, b).coeffs == (1 + 0j, 3 + 0j)


def test_mul_difference_of_squares():
    a = ComplexSeries((1, 1, 0))
    b = ComplexSeries((1, -1, 0))
    assert series_mul(a, b).coeffs == (1 + 0j, 0j, -1 + 0j)


def test_mul_by_zero_annihilates():
    z = ComplexSeries((0j,))
    assert series_mul(z, ComplexSeries((1, 2, 3))).coeffs == (0j,)


def test_reciprocal_hand_value():
    # 1/(1 + z + z^2) = 1 - z + z^3 - ...
    r = series_reciprocal(ComplexSeries((1, 1, 1)))
    assert r.coeffs == (1 + 0j, -1 + 0j, 0j)


def test_reciprocal_geometric():
    r = series_reciprocal(ComplexSeries((1, -1, 0, 0, 0, 0, 0)))
    assert r.coeffs == (1 + 0j,) * 7


def test_reciprocal_of_constant():
    r = series_reciprocal(ComplexSeries((2, 0)))
    assert r.coeffs == (0.5 + 0j, 0j)


def test_reciprocal_rejects_zero_constant():
    with pytest.raises(ValueError):
        series_reciprocal(ComplexSeries((0, 1, 2)))


def test_compose_hand_values():
    # (1 + w + w^2) at w = 2z
    c = series_compose(ComplexSeries((1, 1, 1)), ComplexSeries((0, 2, 0)))
    assert c.coeffs == (1 + 0j, 2 + 0j, 4 + 0j)
    # w^2 at w = z + z^2, truncated to order 3
    c = series_compose(ComplexSeries((0, 0, 1, 0)), ComplexSeries((0, 1, 1, 0)))
    assert c.coeffs == (0j, 0j, 1 + 0j, 2 + 0j)


def test_compose_identity_is_noop():
    outer = ComplexSeries((2, -1, 0.5, 1j))
    assert series_compose(outer, ComplexSeries((0, 1, 0, 0))).coeffs == outer.coeffs


def test_compose_requires_vanishing_inner_constant():
    with pytest.raises(ValueError):
        series_compose(ComplexSeries((1, 1)), ComplexSeries((0.5, 1)))


def test_exp_matches_exponential_series():
    e = series_exp(ComplexSeries((0, 1) + (0,) * 9))
    expected = [1 / math.factorial(k) for k in range(11)]
    assert coeffs_close(e, expected, 1e-15)


def test_exp_carries_constant_term():
    import cmath

    e = series_exp(ComplexSeries((1 + 2j, 1, 0, 0, 0)))
    scale = cmath.exp(1 + 2j)
    expected = [scale / math.factorial(k) for k in range(5)]
    assert coeffs_close(e, expected, 1e-14)


def test_exp_of_log_geometric():
    # exp(-log(1-z)) = 1/(1-z); the log series is sum z^p / p
    n = 12
    a = ComplexSeries((0,) + tuple(1 / p for p in range(1, n + 1)))
    assert coeffs_close(series_exp(a), [1.0] * (n + 1), 1e-13)


def test_constructors_and_validation():
    assert ComplexSeries((2j, 0, 0.5)).coeffs == (2j, 0j, 0.5 + 0j)
    with pytest.raises(ValueError):
        ComplexSeries(())


complexes = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@given(st.lists(complexes, min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_mul_reciprocal_roundtrip(coeffs):
    assume(abs(coeffs[0]) >= 0.5)
    a = ComplexSeries(tuple(coeffs))
    prod = series_mul(a, series_reciprocal(a))
    assert abs(prod.coeffs[0] - 1) <= 1e-9
    assert all(abs(c) <= 1e-9 for c in prod.coeffs[1:])


@given(st.lists(complexes, min_size=2, max_size=8), st.lists(complexes, min_size=2, max_size=8))
@settings(max_examples=150, deadline=None)
def test_mul_commutes(a, b):
    sa, sb = ComplexSeries(tuple(a)), ComplexSeries(tuple(b))
    ab, ba = series_mul(sa, sb), series_mul(sb, sa)
    assert all(abs(x - y) <= 1e-12 for x, y in zip(ab.coeffs, ba.coeffs))


series_coeffs = st.lists(complexes, min_size=1, max_size=65)


@given(series_coeffs, series_coeffs)
@settings(max_examples=150, deadline=None)
def test_mul_matches_double_loop(a, b):
    n = min(len(a), len(b)) - 1
    want = [sum(a[l] * b[p - l] for l in range(p + 1)) for p in range(n + 1)]
    got = series_mul(ComplexSeries(tuple(a)), ComplexSeries(tuple(b)))
    assert got.order == n
    assert all(abs(g - w) <= 1e-12 for g, w in zip(got.coeffs, want))


@given(
    series_coeffs,
    series_coeffs,
    st.complex_numbers(max_magnitude=0.3, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=150, deadline=None)
def test_compose_matches_pointwise_evaluation(outer, inner, z):
    inner = [0j] + inner
    n = min(len(outer), len(inner)) - 1
    c = series_compose(ComplexSeries(tuple(outer)), ComplexSeries(tuple(inner)))
    assert c.order == n

    def poly(coeffs, x):
        acc = 0j
        for v in reversed(coeffs):
            acc = acc * x + v
        return acc

    want = poly(outer[: n + 1], poly(inner[: n + 1], z))
    # The truncation drops powers above n of the composed polynomials.
    # With |coefficients| <= 1 and inner(0) = 0 they are majorized by
    # (1 - z)/(1 - 2z) = 1 + sum 2^(p-1) z^p, so the tail at r = |z| is
    # at most (2r)^(n+1) / (2 (1 - 2r)).
    r = abs(z)
    tail = (2 * r) ** (n + 1) / (2 * (1 - 2 * r))
    assert abs(poly(c.coeffs, z) - want) <= tail + 1e-12


@given(series_coeffs, st.floats(2, 4), st.floats(-math.pi, math.pi))
@settings(max_examples=150, deadline=None)
def test_reciprocal_matches_triangular_recurrence(tail, r, phi):
    # Reference: b_0 = 1/a_0, b_p = -(1/a_0) sum_{l=1..p} a_l b_{p-l}.
    a = [r * complex(math.cos(phi), math.sin(phi))] + tail[1:]
    want = [1 / a[0]]
    for p in range(1, len(a)):
        want.append(-sum(a[l] * want[p - l] for l in range(1, p + 1)) / a[0])
    got = series_reciprocal(ComplexSeries(tuple(a)))
    scale = max(1.0, max(abs(w) for w in want))
    assert got.order == len(a) - 1
    assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got.coeffs, want))


@given(series_coeffs)
@settings(max_examples=150, deadline=None)
def test_exp_matches_termwise_loop(a):
    # Reference: the double loop p E_p = sum_{l=1..p} l a_l E_{p-l}.
    # Rounding is bounded by the same recurrence on moduli (the
    # coefficients of the majorant exp(sum |a_l| z^l)).
    want = [math.exp(a[0].real) * complex(math.cos(a[0].imag), math.sin(a[0].imag))]
    major = [abs(want[0])]
    for p in range(1, len(a)):
        want.append(sum(l * a[l] * want[p - l] for l in range(1, p + 1)) / p)
        major.append(sum(l * abs(a[l]) * major[p - l] for l in range(1, p + 1)) / p)
    got = series_exp(ComplexSeries(tuple(a)))
    assert got.order == len(a) - 1
    assert all(type(g) is complex for g in got.coeffs)
    scale = max(1.0, max(major))
    assert all(abs(g - w) <= 1e-13 * scale for g, w in zip(got.coeffs, want))
