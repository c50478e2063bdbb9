"""Closed-form reference curve, transform identity, and random membership."""

import cmath
import math

import numpy as np
import pytest

from schurvar import (
    AdmissibleSampler,
    ConicSection,
    HalfPlane,
    Janowski,
    MembershipReport,
    QuadratureConfig,
    QuadratureError,
    RegionRequest,
    Sector,
    gronwall_curve,
    gronwall_curve_point,
    h_transform,
    membership_trial,
    polygon_signed_distance,
    q_point,
    region_compute,
    sample_admissible,
    schur_parameters,
)
from schurvar import oracle, regions
from schurvar.oracle import _blaschke_leaf, _hull_candidates, _leaf_draws

HP = HalfPlane()
CATALOG = (
    HP, HalfPlane(0.5), Sector(0.5), Sector(0.1), Janowski(2, -1), Janowski(-2, -1),
    Janowski(1, -1), ConicSection(0.5), ConicSection(1.0),
)


def test_curve_reduces_to_log_at_zero_slope():
    z0 = 0.6
    for theta in np.linspace(-math.pi, math.pi, 16, endpoint=False):
        got = gronwall_curve_point(z0, 0.0, theta)
        want = -cmath.log(1 - cmath.exp(1j * theta) * z0 * z0)
        assert abs(got - want) <= 1e-12


def test_curve_frozen_value():
    got = gronwall_curve_point(0.6, 0.3, 0.0)
    assert abs(got - 0.8621754109643867) <= 1e-14
    assert abs(got.imag) <= 1e-15


def test_curve_matches_region_engine_pointwise():
    for theta in np.linspace(-math.pi, math.pi, 8, endpoint=False):
        got = gronwall_curve_point(0.6, 0.7, theta)
        want = q_point(HP, (0j, 0.7), -1, 0.6, cmath.exp(1j * theta))
        assert abs(got - want) <= 1e-12


def test_curve_batch_matches_pointwise():
    thetas, points = gronwall_curve(0.5, 0.4, samples=32)
    # The curve is sampled on the engine's trace grid.
    trace = region_compute(RegionRequest(HP, (0j, 0.4), -1, 0.5, samples=32))
    assert thetas == trace.polygon.thetas
    for theta, p in zip(thetas, points):
        assert p == gronwall_curve_point(0.5, 0.4, theta)


def test_curve_conjugate_symmetry():
    for theta in (0.3, 1.1, 2.9):
        a = gronwall_curve_point(0.5, 0.6, theta)
        b = gronwall_curve_point(0.5, 0.6, -theta)
        assert abs(b - a.conjugate()) <= 1e-14


def test_curve_slope_validation():
    with pytest.raises(ValueError):
        gronwall_curve_point(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        gronwall_curve_point(0.5, -0.1, 0.0)


def test_h_transform_identity_against_engine():
    rng = np.random.default_rng(12)
    for dom in (HP, Janowski(0.5, -0.5)):
        for j in (0, 1, 2):
            for n in (1, 2, 3):
                z0 = rng.uniform(0.2, 0.8) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
                eps = cmath.exp(1j * rng.uniform(-np.pi, np.pi))
                q = q_point(dom, (0j,) * n, j, z0, eps)
                lhs = (j + 1) * q / z0 ** (j + 1)
                rhs = h_transform(dom, j, n, eps * z0**n)
                assert abs(lhs - rhs) <= 1e-10


def test_h_transform_closed_form():
    z = 0.3 + 0.2j
    got = h_transform(HP, 0, 1, z)
    want = -2 - 2 * cmath.log(1 - z) / z
    assert abs(got - want) <= 1e-11


def test_h_transform_vanishes_at_origin():
    assert abs(h_transform(HP, 0, 1, 1e-6)) < 1e-4


def test_h_transform_validation():
    with pytest.raises(ValueError):
        h_transform(HP, -1, 1, 0.5)
    with pytest.raises(ValueError):
        h_transform(HP, 0, 0, 0.5)
    with pytest.raises(ValueError):
        h_transform(HP, 0, 1, 0.0)
    with pytest.raises(ValueError, match=r"\|z\| < 1"):
        h_transform(HP, 0, 1, complex("nan"))
    with pytest.raises(ValueError):
        h_transform(HP, 0, 1, 1.5)


def test_sampler_is_deterministic():
    s = AdmissibleSampler(gamma=(0.2, -0.3 + 0.1j), blaschke_degree=2, seed=41)
    f = sample_admissible(s, HP)
    g = sample_admissible(s, HP)
    pts = [0.3, -0.2 + 0.4j, 0.55j]
    assert [f(z) for z in pts] == [g(z) for z in pts]
    other = sample_admissible(
        AdmissibleSampler(gamma=(0.2, -0.3 + 0.1j), blaschke_degree=2, seed=42), HP
    )
    assert any(f(z) != other(z) for z in pts)


def test_sampler_respects_target_range():
    s = AdmissibleSampler(gamma=(0.1j,), blaschke_degree=3, seed=7)
    f = sample_admissible(s, HP)
    rng = np.random.default_rng(8)
    for _ in range(100):
        z = 0.95 * rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(-np.pi, np.pi))
        assert f(z).real > 0


def test_sampler_prefix_is_forced():
    # Invert the half-plane map, expand by circle sampling, and check
    # that the sample's first parameters equal the requested prefix.
    gamma = (0.2, -0.3 + 0.1j)
    f = sample_admissible(
        AdmissibleSampler(gamma=gamma, blaschke_degree=2, seed=13), HP
    )
    r, m = 0.3, 512
    vals = [f(r * cmath.exp(2j * math.pi * i / m)) for i in range(m)]
    w = [(v - 1) / (v + 1) for v in vals]
    coeffs = np.fft.fft(np.array(w)) / m
    data = tuple(coeffs[p] / r**p for p in range(4))
    sp = schur_parameters(data)
    assert abs(sp.gamma[0] - gamma[0]) <= 1e-9
    assert abs(sp.gamma[1] - gamma[1]) <= 1e-9


def test_sampler_validation():
    with pytest.raises(ValueError):
        AdmissibleSampler(gamma=(1.2,), blaschke_degree=1, seed=0)
    with pytest.raises(ValueError):
        AdmissibleSampler(gamma=(0.5,), blaschke_degree=-1, seed=0)
    with pytest.raises(ValueError):
        AdmissibleSampler(gamma=(complex("nan"),), blaschke_degree=1, seed=0)


def test_membership_trial_all_inside():
    rep = membership_trial(HP, (0j, 0.3), -1, 0.5, trials=200, seed=2)
    assert rep.inside == rep.total == 200
    assert rep.max_signed_distance < 0
    assert rep.failures == ()


def test_membership_trial_deterministic():
    a = membership_trial(HP, (0j, 0.3), -1, 0.5, trials=50, seed=9)
    b = membership_trial(HP, (0j, 0.3), -1, 0.5, trials=50, seed=9)
    assert a == b


def test_membership_degenerate_leaf_sits_on_trace():
    # Degree-zero leaves give unimodular multipliers: the sampled value
    # lands on the traced curve itself, outside the inscribed polygon by
    # at most the chord sag of a 256-gon.
    rep = membership_trial(
        HP, (0j, 0.3), -1, 0.5, trials=100, seed=2, degrees=(0,), inflation=1e-2
    )
    assert rep.inside == rep.total
    assert -1e-9 <= rep.max_signed_distance <= 1e-3


def test_membership_failures_are_reported():
    rep = membership_trial(
        HP, (0j, 0.3), -1, 0.5, trials=40, seed=2, degrees=(0,), inflation=1e-9
    )
    assert rep.inside < rep.total
    assert len(rep.failures) == rep.total - rep.inside
    for trial, point, dist in rep.failures:
        assert 0 <= trial < 40
        assert dist > 1e-9
        assert isinstance(point, complex)


def test_membership_quadrature_failure_names_trials():
    # No capped plan meets this budget; the batched failure must say
    # which trials and which case.
    with pytest.raises(QuadratureError) as info:
        membership_trial(
            HP, (0.9,), 0, 0.99, trials=12, seed=1, cfg=QuadratureConfig(1e-300, 1e-300)
        )
    err = info.value
    msg = str(err)
    assert "trial" in msg
    assert "halfplane:alpha=0" in msg
    assert "z0 = (0.99+0j)" in msg and "j = 0" in msg
    named = msg.rsplit("trials [", 1)[1].split("]", 1)[0]
    assert [int(t) for t in named.split(",")] == list(err.columns[:4])
    assert err.estimate.shape == err.error_bound.shape == (12,)
    assert err.columns and all(0 <= t < 12 for t in err.columns)


def test_membership_rejects_bad_input_before_integrating():
    for gamma in ((), (0.2, 1.0)):
        with pytest.raises(ValueError):
            membership_trial(HP, gamma, 0, 0.5, trials=2, seed=0)
    with pytest.raises(ValueError):
        membership_trial(HP, (0j,), 0, 0.5, trials=2, seed=0, degrees=(1, -1))
    with pytest.raises(ValueError, match="degrees"):
        membership_trial(HP, (0j,), 0, 0.5, trials=2, seed=0, degrees=())
    with pytest.raises(ValueError, match="trials"):
        membership_trial(HP, (0j,), 0, 0.5, trials=-3, seed=0)
    with pytest.raises(ValueError):
        membership_trial(HP, (0j,), -2, 0.5, trials=2, seed=0)
    for z0 in (0, 1.0, 0.6 + 0.8j):
        with pytest.raises(ValueError):
            membership_trial(HP, (0j,), 0, z0, trials=2, seed=0)


@pytest.mark.parametrize("j", [-1, 0, 2])
@pytest.mark.parametrize(
    "dom",
    [HP, Sector(0.5), Janowski(2, -1), ConicSection(1.0)],
    ids=lambda d: d.spec_string(),
)
def test_membership_degree_zero_leaf_equals_q_point(dom, j):
    # A degree-0 Blaschke leaf zeta B(zeta) is the extremal leaf
    # phase * zeta, so each trial value must be the trace kernel's
    # value at that trial's drawn phase.  Inflation -inf reports every
    # trial with its value.
    gamma, z0, seed, trials = (0.1, 0.3 - 0.2j), 0.6 + 0.2j, 5, 6
    rep = membership_trial(
        dom, gamma, j, z0, trials, seed, degrees=(0,), inflation=-math.inf
    )
    assert [t for t, _, _ in rep.failures] == list(range(trials))
    phases, _, _ = _leaf_draws(seed, trials, (0,))
    for t, value, _ in rep.failures:
        want = q_point(dom, gamma, j, z0, phases[t])
        assert abs(value - want) <= 1e-12 * abs(want)


def test_membership_shorter_run_is_a_prefix():
    # Row t of the case's one stream depends only on (seed, t), so the
    # first k trials of a longer run are the trials of a run of k: the
    # same leaves bit for bit, and the same values up to the rounding of
    # numpy's array loops at another batch width.
    full_draws = _leaf_draws(11, 40, (1, 2, 3, 4))
    args = (Sector(0.5), (0.1, 0.3 - 0.2j), 0, 0.7j)
    full = membership_trial(*args, 40, 11, inflation=-math.inf).failures
    for k in (0, 1, 13):
        for x, y in zip(_leaf_draws(11, k, (1, 2, 3, 4)), full_draws):
            assert np.array_equal(x, y[..., :k])
        got = membership_trial(*args, k, 11, inflation=-math.inf).failures
        assert [t for t, _, _ in got] == list(range(k))
        for (_, value, dist), (_, v, d) in zip(got, full):
            assert abs(value - v) <= 1e-12 * abs(v) and abs(dist - d) <= 1e-12


def test_leaf_draws_follow_the_seed():
    a = _leaf_draws(5, 30, (1, 2, 3, 4))
    for x, y in zip(a, _leaf_draws(5, 30, (1, 2, 3, 4))):
        assert np.array_equal(x, y)
    b = _leaf_draws(6, 30, (1, 2, 3, 4))
    assert not np.array_equal(a[0], b[0])
    assert not np.array_equal(a[1], b[1])


def test_leaf_draws_cover_every_degree_inside_the_zero_disk():
    degrees = (1, 2, 3, 4)
    phase, zeros, used = _leaf_draws(3, 1000, degrees)
    assert phase.shape == (1000,) and zeros.shape == used.shape == (4, 1000)
    assert np.allclose(np.abs(phase), 1, rtol=0, atol=1e-15)
    picked = used.sum(axis=0)
    assert set(picked.tolist()) == set(degrees)
    # A degree-d leaf uses exactly its first d factors.
    assert np.array_equal(used, np.arange(4)[:, None] < picked)
    assert np.all(np.abs(zeros) <= 0.9)


def _hull_vertices(points: np.ndarray) -> set[int]:
    """Indices of the strict convex-hull vertices (Andrew's monotone chain)."""
    order = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))

    def chain(idx):
        out = []
        for i in idx:
            while len(out) >= 2:
                a, b = points[out[-2]], points[out[-1]]
                if ((b - a).conjugate() * (points[i] - a)).imag > 0:
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    return set(chain(order) + chain(order[::-1]))


@pytest.mark.parametrize("seed", range(6))
def test_hull_candidates_keep_every_hull_vertex(seed):
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=300) + 1j * rng.normal(size=300)
    ring = np.exp(2j * np.pi * rng.uniform(size=40))
    segment = (1 + 2j) * rng.uniform(size=30) + 0.5
    for values in (cloud, 3 + 1e-3 * cloud, ring, segment, np.concatenate((cloud, cloud))):
        keep = set(_hull_candidates(values, np.max(np.abs(values.view(float)))).tolist())
        assert _hull_vertices(values) <= keep
    # Points in convex position are all candidates; a cloud keeps few.
    assert len(_hull_candidates(ring, 1.0)) == len(ring)
    assert len(_hull_candidates(cloud, 4.0)) < 40


def _all_values_report(domain, gamma, j, z0, trials, seed, degrees=(1, 2, 3, 4), inflation=1e-6):
    """The report, and every distance, with each trial value measured."""
    phase, zeros, used = _leaf_draws(seed, trials, degrees)
    values = regions._q(
        domain, gamma, j, z0,
        lambda zeta: _blaschke_leaf(phase, zeros, used, zeta), None, str,
    )
    pts = regions._q_eps(domain, gamma, j, z0, np.exp(1j * regions._thetas(256)), None)
    dist = polygon_signed_distance(pts, values)
    outside = np.flatnonzero(~(dist <= inflation)).tolist()
    return MembershipReport(
        trials - len(outside), trials, float(np.max(dist, initial=-math.inf)),
        tuple((t, complex(values[t]), float(dist[t])) for t in outside),
    ), dist


MEMBERSHIP_MODES = {
    "default": {},
    "every value reported": {"inflation": -math.inf},
    "extremal leaves": {"degrees": (0,), "inflation": 1e-9},
}


def _random_case(seed):
    rng = np.random.default_rng(seed)
    dom = CATALOG[rng.integers(len(CATALOG))]
    gamma = tuple(complex(*v) for v in rng.uniform(-0.4, 0.4, (rng.integers(1, 4), 2)))
    z0 = rng.uniform(0.2, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    return dom, gamma, int(rng.integers(-1, 2)), z0


@pytest.mark.parametrize("mode", sorted(MEMBERSHIP_MODES))
@pytest.mark.parametrize("seed", range(8))
def test_membership_matches_every_value_measured(seed, mode):
    # Only hull-vertex candidates are measured when they all pass; the
    # report must still be the one every value's distance gives, bit
    # for bit.
    case = _random_case(seed)
    want, _ = _all_values_report(*case, 60, seed, **MEMBERSHIP_MODES[mode])
    assert membership_trial(*case, 60, seed, **MEMBERSHIP_MODES[mode]) == want


@pytest.mark.parametrize("mode", sorted(MEMBERSHIP_MODES))
@pytest.mark.parametrize("trials", [0, 1, 2, 3])
def test_membership_few_trials_match_every_value_measured(trials, mode):
    case = (Sector(0.5), (0.1 + 0.05j, 0.2 - 0.1j), -1, 0.4 * cmath.exp(0.4j))
    want, _ = _all_values_report(*case, trials, 4, **MEMBERSHIP_MODES[mode])
    assert membership_trial(*case, trials, 4, **MEMBERSHIP_MODES[mode]) == want


def test_membership_one_failing_candidate_measures_every_value():
    # An inflation between the two largest distances fails exactly the
    # farthest value, a hull vertex and so a candidate.
    case = (Janowski(2, -1), (0.2j, 0.1 - 0.3j), 0, 0.7 - 0.3j)
    _, dist = _all_values_report(*case, 80, 3)
    top, second = np.sort(dist)[-1:-3:-1]
    assert second < top
    inflation = (top + second) / 2
    want, _ = _all_values_report(*case, 80, 3, inflation=inflation)
    assert want.inside == 79 and len(want.failures) == 1
    assert membership_trial(*case, 80, 3, inflation=inflation) == want


def test_membership_at_minus_inf_inflation_measures_once(monkeypatch):
    # No value can pass at inflation -inf, so no candidates are picked
    # and measured before every value is.
    calls = []

    def counting(poly, w):
        calls.append(len(w))
        return polygon_signed_distance(poly, w)

    monkeypatch.setattr(oracle, "polygon_signed_distance", counting)
    case = (Sector(0.5), (0.1 + 0.05j, 0.2 - 0.1j), -1, 0.4 * cmath.exp(0.4j))
    report = membership_trial(*case, 200, 4, inflation=-math.inf)
    assert calls == [200]
    assert report.inside == 0 and len(report.failures) == 200
