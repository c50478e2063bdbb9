"""Schur recursion, Toeplitz cross-check, and Blaschke tower algebra."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurvar import (
    INF,
    BlaschkeTower,
    Classification,
    HalfPlane,
    RegionRequest,
    mobius_eval,
    region_compute,
    schur_parameters,
    toeplitz_membership,
    tower_eval,
    tower_taylor,
)
from schurvar import schur


# Three data vectors exercising all three classification branches.
def test_interior_example():
    sp = schur_parameters((0.5, 0.5))
    assert sp.classification is Classification.INTERIOR
    assert abs(sp.gamma[0] - 0.5) <= 1e-15
    assert abs(sp.gamma[1] - 2 / 3) <= 1e-15
    assert sp.boundary_index is None


def test_zero_head_shifts_and_rescales():
    # With c0 = 0 the first peel is a plain shift, so gamma1 = c1 and
    # gamma2 = c2 / (1 - |c1|^2).
    c1, c2 = 0.3 - 0.4j, 0.2 + 0.1j
    sp = schur_parameters((0j, c1, c2))
    assert sp.classification is Classification.INTERIOR
    assert sp.gamma[0] == 0
    assert abs(sp.gamma[1] - c1) <= 1e-15
    assert abs(sp.gamma[2] - c2 / (1 - abs(c1) ** 2)) <= 1e-15


def test_boundary_example():
    sp = schur_parameters((1.0, 0.0))
    assert sp.classification is Classification.BOUNDARY
    assert sp.gamma == (1 + 0j, 0j)
    assert sp.boundary_index == 0


def test_exterior_example():
    sp = schur_parameters((1.0, 0.5))
    assert sp.classification is Classification.EXTERIOR
    assert sp.gamma[0] == 1
    assert sp.gamma[1] is INF


def test_exterior_mixed_tail():
    # Unimodular head, one vanishing then one non-vanishing tail datum.
    sp = schur_parameters((1.0, 0.0, 0.2))
    assert sp.classification is Classification.EXTERIOR
    assert sp.gamma == (1 + 0j, 0j, INF)
    assert sp.boundary_index == 0


def test_exterior_tail_after_a_deeper_stop():
    # omega = s_a(z omega_1) with a = (1 + i)/2 and omega_1 = 1 + z/4 + z^2/2.
    # Every coefficient and every level is exact in binary, so the stop at
    # gamma_1 = 1 sees the vanishing z^3 coefficient of omega_1 as zero.
    data = (0.5 + 0.5j, 0.5, -0.125 + 0.25j, 0.125 - 0.125j, -0.140625 + 0.203125j)
    sp = schur_parameters(data)
    assert sp.classification is Classification.EXTERIOR
    assert sp.gamma == (0.5 + 0.5j, 1 + 0j, INF, INF, 0j)
    assert sp.boundary_index == 1


def test_unimodular_band_is_absolute_1e_12():
    for excess in (5e-13, -5e-13):
        assert schur_parameters((1 + excess, 0)).classification is Classification.BOUNDARY
    sp = schur_parameters((1 + 5e-12, 0))
    assert sp.classification is Classification.EXTERIOR
    assert sp.boundary_index is None
    assert schur_parameters((1 - 5e-12, 0)).classification is Classification.INTERIOR


def test_modulus_above_one_stops_immediately():
    sp = schur_parameters((1.5,))
    assert sp.classification is Classification.EXTERIOR
    assert sp.gamma == (1.5 + 0j,)


def test_single_datum():
    assert schur_parameters((0.3,)).classification is Classification.INTERIOR
    sp = schur_parameters((1.0,))
    assert sp.classification is Classification.BOUNDARY
    assert sp.boundary_index == 0


def test_inf_sentinel_repr():
    assert repr(INF) == "INF"


def test_empty_data_rejected():
    with pytest.raises(ValueError):
        schur_parameters(())


def test_tower_taylor_frozen():
    s = tower_taylor(BlaschkeTower((0, 0.4), 0.3), 2)
    assert abs(s.coeffs[0]) == 0
    assert abs(s.coeffs[1] - 0.4) <= 1e-15
    # (1 - 0.4^2) * 0.3
    assert abs(s.coeffs[2] - 0.252) <= 1e-15


def test_roundtrip_recovers_parameters_and_leaf():
    gamma = (0.1 - 0.3j, -0.5, 0.25 + 0.4j)
    eps = 0.7 * cmath.exp(1.1j)
    data = tower_taylor(BlaschkeTower(gamma, eps), order=len(gamma)).coeffs
    sp = schur_parameters(data)
    assert sp.classification is Classification.INTERIOR
    for got, want in zip(sp.gamma, gamma):
        assert abs(got - want) <= 1e-12
    # The leaf multiplier shows up as the next recovered parameter.
    assert abs(sp.gamma[len(gamma)] - eps) <= 1e-12


def test_roundtrip_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gamma = tuple(
            0.9 * rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            for _ in range(n)
        )
        eps = 0.8 * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
        data = tower_taylor(BlaschkeTower(gamma, eps), order=n - 1).coeffs
        sp = schur_parameters(data)
        assert sp.classification is Classification.INTERIOR
        assert max(abs(g - w) for g, w in zip(sp.gamma, gamma)) <= 1e-10


def test_toeplitz_agrees_on_examples():
    assert toeplitz_membership((0.5, 0.5)) is Classification.INTERIOR
    assert toeplitz_membership((1.0, 0.0)) is Classification.BOUNDARY
    assert toeplitz_membership((1.0, 0.5)) is Classification.EXTERIOR


def test_toeplitz_margin_band():
    near_one = (1 - 1e-9,)
    assert toeplitz_membership(near_one, margin=1e-6) is Classification.BOUNDARY
    assert toeplitz_membership(near_one, margin=1e-12) is Classification.INTERIOR


def test_toeplitz_against_numpy_svd():
    rng = np.random.default_rng(17)
    margin = 1e-6
    for _ in range(50):
        n = int(rng.integers(1, 6))
        c = rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n)
        t = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for k in range(i + 1):
                t[i, k] = c[i - k]
        norm = np.linalg.svd(t, compute_uv=False)[0]
        if abs(norm - 1) <= 10 * margin:
            continue
        want = Classification.INTERIOR if norm < 1 else Classification.EXTERIOR
        assert toeplitz_membership(tuple(c), margin=margin) is want


def test_toeplitz_against_numpy_svd_long_data():
    # Data up to the algebra workload's n = 33, scaled so the norm lands
    # a few margins either side of 1.
    def sigma_max(c):
        k = np.arange(len(c))
        return np.linalg.svd(np.tril(c[np.subtract.outer(k, k)]), compute_uv=False)[0]

    rng = np.random.default_rng(23)
    margin = 1e-6
    for _ in range(60):
        n = int(rng.integers(6, 34))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = c / sigma_max(c) * (1 + margin * rng.choice([-3.0, -1.5, 1.5, 3.0]))
        norm = sigma_max(c)
        want = Classification.INTERIOR if norm < 1 else Classification.EXTERIOR
        assert toeplitz_membership(tuple(c), margin=margin) is want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_toeplitz_rejects_non_finite_data(bad):
    with pytest.raises(ValueError):
        toeplitz_membership((0.5, bad))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_recursion_rejects_non_finite_data_by_index(bad):
    for data, index in (((0.5, bad), 1), ((bad,), 0), ((2.0, 0.1, bad), 2)):
        with pytest.raises(ValueError, match=rf"data\[{index}\]"):
            schur_parameters(data)
    with pytest.raises(ValueError, match=r"data\[1\]"):
        region_compute(RegionRequest(HalfPlane(), (0.2, bad), 0, 0.5))


def test_mobius_fixed_points_and_values():
    assert mobius_eval(0.5, 0) == 0.5
    assert abs(mobius_eval(0.5, -0.5)) <= 1e-15
    assert abs(mobius_eval(0.5, 0.5) - 0.8) <= 1e-15


def test_mobius_preserves_unit_circle():
    a = 0.4 - 0.3j
    for theta in np.linspace(-np.pi, np.pi, 17):
        w = mobius_eval(a, cmath.exp(1j * theta))
        assert abs(abs(w) - 1) <= 1e-12


def test_mobius_pole():
    with pytest.raises(ZeroDivisionError):
        mobius_eval(1.0, -1.0)


small = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
closed = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(small, closed)
@settings(max_examples=200, deadline=None)
def test_mobius_involution(a, z):
    assert abs(mobius_eval(-a, mobius_eval(a, z)) - z) <= 1e-13


@given(st.lists(closed, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_recursion_never_yields_non_finite_gamma(data):
    # The linear-fractional levels never renormalize: den_0 shrinks by
    # 1 - |gamma|^2 per level, and still no gamma may come out non-finite.
    sp = schur_parameters(data)
    assert all(cmath.isfinite(g) for g in sp.gamma if g is not INF)


def test_mobius_series_matches_eval():
    # The one-level tower (a,) over the leaf z is s_a itself.
    a = 0.3 - 0.2j
    s = tower_taylor(BlaschkeTower((a,), 1), 16)
    for z in (0.1, -0.05 + 0.08j):
        val = sum(c * z**p for p, c in enumerate(s.coeffs))
        assert abs(val - mobius_eval(a, z)) <= 1e-13


def test_mobius_series_order():
    assert tower_taylor(BlaschkeTower((0.5,), 1), 0).order == 0
    assert tower_taylor(BlaschkeTower((0.5,), 1), 3).order == 3


def test_tower_validation():
    with pytest.raises(ValueError):
        BlaschkeTower((1.0,), 0.5)
    with pytest.raises(ValueError):
        BlaschkeTower((0.5,), 1.1)
    # |nan| >= 1 is False: NaN must fail the guards too.
    with pytest.raises(ValueError):
        BlaschkeTower((0.3, complex(0, np.nan)), 1.0)
    with pytest.raises(ValueError):
        BlaschkeTower((0.3,), complex("nan"))
    BlaschkeTower((0.5,), 1.0)  # unimodular leaf multiplier is allowed


def test_tower_maps_disk_into_disk():
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        gamma = tuple(
            0.9 * rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            for _ in range(n)
        )
        eps = cmath.exp(1j * rng.uniform(-np.pi, np.pi)) * rng.uniform(0, 1)
        tower = BlaschkeTower(gamma, eps)
        for _ in range(20):
            z = 0.999 * rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            assert abs(tower_eval(tower, z)) <= 1 + 1e-13


def test_tower_single_level_closed_form():
    gamma1 = 0.4 - 0.25j
    eps = 0.7 * cmath.exp(0.3j)
    tower = BlaschkeTower((0j, gamma1), eps)
    for z in (0.3, -0.2 + 0.5j, 0.8j):
        want = z * (eps * z + gamma1) / (1 + gamma1.conjugate() * eps * z)
        assert abs(tower_eval(tower, z) - want) <= 1e-14


def test_tower_taylor_matches_eval():
    tower = BlaschkeTower((0.3, -0.2 + 0.4j), 0.6 * cmath.exp(0.5j))
    s = tower_taylor(tower, 16)
    for z in (0.05, -0.03 + 0.02j):
        val = sum(c * z**p for p, c in enumerate(s.coeffs))
        # Tail below 0.05^17: the expanded map is bounded by one.
        assert abs(val - tower_eval(tower, z)) <= 1e-13


def _mobius_chain(gamma, z, w):
    for a in gamma[:0:-1]:
        w = z * mobius_eval(a, w)
    return mobius_eval(gamma[0], w)


def test_climb_equals_the_mobius_eval_chain_bit_for_bit():
    # The inline climb keeps mobius_eval's arithmetic and its order, so
    # every trace and membership value stays the same to the bit, also
    # next to the poles: |gamma| up to 1 - 1e-9, unimodular leaves.
    rng = np.random.default_rng(41)
    for depth in range(1, 7):
        for _ in range(20):
            mod = 1 - 10.0 ** rng.uniform(-9, 0, depth)
            mod[rng.integers(depth)] = 1 - 1e-9
            gamma = tuple(complex(v) for v in mod * np.exp(2j * np.pi * rng.uniform(size=depth)))
            z = np.sqrt(rng.uniform(size=(15, 4))) * np.exp(2j * np.pi * rng.uniform(size=(15, 4)))
            w = np.exp(2j * np.pi * rng.uniform(size=(15, 4)))
            assert np.array_equal(schur._climb(gamma, z, w), _mobius_chain(gamma, z, w))
            for zi, wi in zip(z[:, 0].tolist(), w[:, 0].tolist()):
                assert schur._climb(gamma, zi, wi) == _mobius_chain(gamma, zi, wi)


def test_climb_never_writes_z_or_w():
    # Every level works in place in the result and denominator arrays
    # the climb allocates: the nodes and the leaf values stay as they were.
    rng = np.random.default_rng(43)
    z = np.sqrt(rng.uniform(size=(15, 1))) * np.exp(2j * np.pi * rng.uniform(size=(15, 1)))
    w = np.exp(2j * np.pi * rng.uniform(size=(15, 4))) * z
    for depth in (1, 2, 4):
        gamma = tuple(complex(v) for v in 0.5 * np.exp(2j * np.pi * rng.uniform(size=depth)))
        z0, w0 = z.copy(), w.copy()
        got = schur._climb(gamma, z, w)
        assert z.tobytes() == z0.tobytes() and w.tobytes() == w0.tobytes()
        assert got.shape == w.shape
        assert not np.shares_memory(got, z) and not np.shares_memory(got, w)


def test_tower_taylor_low_orders_truncate_the_high_order_series():
    # num and den are cut to order + 1 coefficients at every level; a
    # cut that dropped a needed term would move a low-order coefficient.
    tower = BlaschkeTower(
        (0.3 - 0.2j, 0.5j, -0.4, 0.2 + 0.6j, 0.7, -0.1 - 0.3j), cmath.exp(0.7j)
    )
    full = tower_taylor(tower, 32).coeffs
    for order in range(9):
        s = tower_taylor(tower, order)
        assert s.order == order
        assert max(abs(a - b) for a, b in zip(s.coeffs, full)) <= 1e-15


def test_tower_taylor_divides_once(monkeypatch):
    calls = []
    reciprocal = schur.series_reciprocal
    monkeypatch.setattr(schur, "series_reciprocal", lambda a: calls.append(a) or reciprocal(a))
    tower_taylor(BlaschkeTower((0.3, -0.2j, 0.5, 0.1 + 0.1j), 1), 16)
    assert len(calls) == 1


def test_tower_coefficients_bounded_by_one():
    rng = np.random.default_rng(31)
    for _ in range(50):
        gamma = tuple(
            0.85 * rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            for _ in range(int(rng.integers(1, 4)))
        )
        eps = 0.95 * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
        s = tower_taylor(BlaschkeTower(gamma, eps), 12)
        assert max(abs(c) for c in s.coeffs) <= 1 + 1e-12



def test_tower_equality_and_hash():
    assert BlaschkeTower((0.3,), 0.5) == BlaschkeTower((0.3 + 0j,), 0.5 + 0j)
    assert hash(BlaschkeTower((0.3,), 0.5)) == hash(BlaschkeTower((0.3 + 0j,), 0.5 + 0j))
    assert BlaschkeTower((0.3,), 0.5) != BlaschkeTower((0.3,), 0.5j)


def test_tower_rejects_array_leaf():
    with pytest.raises(TypeError):
        BlaschkeTower((0.3,), np.array([1, 1j]))
