"""Target-domain catalog: evaluation, Taylor data, and reductions.

The conic-family second coefficient is checked against a closed form
obtained by expanding cosh(A log((1+sqrt z)/(1-sqrt z))) through z^2:
alpha2 = (2 A^2 / 3)(2 + A^2)/(1 - k^2) for k < 1, and 16/(3 pi^2) at
k = 1.  The library reads it off its series, the cosh series composed
term by term with that of u = log((1+sqrt z)/(1-sqrt z))^2, so the two
routes are independent.
"""

import cmath
import math

import numpy as np
import pytest

from schurvar import (
    ConicSection,
    DomainSpec,
    HalfPlane,
    Janowski,
    Sector,
    make_domain,
    series_mul,
)
from schurvar.cli import parse_domain

_rng = np.random.default_rng(3)
RNG_POINTS = [
    0.95 * r * cmath.exp(1j * t)
    for r, t in zip(_rng.uniform(0.05, 1, 50), _rng.uniform(-np.pi, np.pi, 50))
]


def test_all_domains_are_normalized_at_zero():
    for d in (HalfPlane(), HalfPlane(0.5), Sector(0.5), Janowski(2, -1),
              ConicSection(0.5), ConicSection(1.0)):
        assert abs(d.eval(0) - 1) <= 1e-14
        assert abs(d.taylor(0).coeffs[0] - 1) <= 1e-14


def test_halfplane_taylor_is_constant_tail():
    t = HalfPlane().taylor(5)
    assert all(abs(c - 2) <= 1e-15 for c in t.coeffs[1:])
    t = HalfPlane(0.5).taylor(5)
    assert all(abs(c - 1) <= 1e-15 for c in t.coeffs[1:])


def test_halfplane_range():
    for alpha in (0.0, 0.5, -1.0):
        d = HalfPlane(alpha)
        assert all(d.eval(z).real > alpha - 1e-12 for z in RNG_POINTS)


def test_cayley_spot_values():
    # (1 + z)/(1 - z) at z = 1/2, for the right half-plane and its
    # conic degeneration alike.
    assert abs(HalfPlane(0.0).eval(0.5) - 3.0) <= 1e-14
    assert abs(ConicSection(0.0).eval(0.5) - 3.0) <= 1e-10


def test_halfplane_alpha_validation():
    with pytest.raises(ValueError):
        HalfPlane(1.0)


def test_sector_square_recovers_full_angle():
    half = Sector(0.5).taylor(8)
    full = Sector(1.0).taylor(8)
    sq = series_mul(half, half)
    assert max(abs(a - b) for a, b in zip(sq.coeffs, full.coeffs)) <= 1e-12
    assert max(abs(a - b) for a, b in zip(full.coeffs, HalfPlane().taylor(8).coeffs)) <= 1e-12


def test_full_sector_low_order_coefficients():
    t = Sector(1.0).taylor(2)
    assert max(abs(c - w) for c, w in zip(t.coeffs, (1, 2, 2))) <= 1e-12


def test_sector_range():
    beta = 0.5
    d = Sector(beta)
    for z in RNG_POINTS:
        assert abs(cmath.phase(d.eval(z))) <= beta * math.pi / 2 + 1e-12


def test_sector_alpha_values():
    d = Sector(0.5)
    assert abs(d.alpha1 - 1) <= 1e-15
    assert abs(d.alpha2 - 0.5) <= 1e-15


def test_narrow_sector_series_keeps_its_digits():
    # The product of the binomial series of (1+z)^b and (1-z)^-b cancels:
    # it gave alpha2 3e-5 off, relatively, at b = 1e-6.
    for b in (1e-3, 1e-6, 1e-9):
        d = Sector(b)
        assert d.alpha1 == 2 * b and d.alpha2 == 2 * b * b
        want = 2 * b / 3 + 4 * b**3 / 3
        assert abs(d.taylor(3).coeffs[3] - want) <= 1e-15 * want


def test_sector_validation():
    Sector(1.0)
    with pytest.raises(ValueError):
        Sector(0.0)
    with pytest.raises(ValueError):
        Sector(1.2)


def test_janowski_coefficient_formula():
    for a, b in ((2.0, -1.0), (0.5, -0.5), (1.0, 0.3)):
        t = Janowski(a, b).taylor(6)
        for p in range(1, 7):
            want = (-b) ** (p - 1) * (a - b)
            assert abs(t.coeffs[p] - want) <= 1e-13


def test_janowski_eval_matches_formula():
    d = Janowski(0.5, -0.5)
    for z in RNG_POINTS:
        assert abs(d.eval(z) - (1 + 0.5 * z) / (1 - 0.5 * z)) <= 1e-14


def test_janowski_validation():
    with pytest.raises(ValueError):
        Janowski(2.0, -1.5)
    with pytest.raises(ValueError):
        Janowski(0.5, 0.5)


def test_janowski_reduces_to_halfplane():
    for alpha in (-0.5, 0.0, 0.25, 0.5):
        j = Janowski(1 - 2 * alpha, -1.0)
        h = HalfPlane(alpha)
        assert all(abs(j.eval(z) - h.eval(z)) <= 1e-12 for z in RNG_POINTS)


def test_conic_alpha1_closed_forms():
    for k in (0.0, 0.3, 0.5, 0.9):
        a = 2 / math.pi * math.acos(k)
        assert abs(ConicSection(k).alpha1 - 2 * a * a / (1 - k * k)) <= 1e-12
    assert abs(ConicSection(1.0).alpha1 - 8 / math.pi**2) <= 1e-12


def test_conic_alpha2_closed_forms():
    for k in (0.0, 0.3, 0.5, 0.9):
        a = 2 / math.pi * math.acos(k)
        want = (2 * a * a / 3) * (2 + a * a) / (1 - k * k)
        assert abs(ConicSection(k).alpha2 - want) <= 1e-10
    assert abs(ConicSection(1.0).alpha2 - 16 / (3 * math.pi**2)) <= 1e-10


def test_conic_k_zero_matches_halfplane():
    d = ConicSection(0.0)
    h = HalfPlane()
    assert all(abs(d.eval(z) - h.eval(z)) <= 1e-10 for z in RNG_POINTS)
    t, th = d.taylor(8), h.taylor(8)
    assert max(abs(a - b) for a, b in zip(t.coeffs, th.coeffs)) <= 1e-10


def test_conic_range_property():
    # Values lie in the region Re w > k |w - 1|.
    for k in (0.5, 1.0):
        d = ConicSection(k)
        for z in RNG_POINTS:
            w = d.eval(0.9 * z)
            assert w.real - k * abs(w - 1) > -1e-9


def test_conic_taylor_is_real():
    for k in (0.4, 1.0):
        t = ConicSection(k).taylor(8)
        assert max(abs(c.imag) for c in t.coeffs) <= 1e-12


def test_conic_validation():
    with pytest.raises(ValueError):
        ConicSection(1.2)
    with pytest.raises(ValueError):
        ConicSection(-0.1)


def test_eval_outside_disk_rejected():
    # |nan| >= 1 is False: NaN must fail the guard too.
    bad = (1.0, 1.5j, complex("nan"), complex(0.5, math.nan))
    for d in (HalfPlane(), Sector(0.5), Janowski(2, -1), ConicSection(0.5)):
        for z in bad:
            with pytest.raises(ValueError):
                d.eval(z)
            with pytest.raises(ValueError):
                d.eval(np.array([0.1, z]))


def test_taylor_memoized_and_consistent():
    d = Sector(0.7)
    assert d.taylor(5) is d.taylor(5)
    assert d.taylor(3).coeffs == d.taylor(8).coeffs[:4]


def test_alpha_fields_match_closed_forms():
    # alpha1 and alpha2 are read off the series; the conic forms are
    # checked above.
    cases = [(HalfPlane(a), 2 * (1 - a), 2 * (1 - a)) for a in (0.25, -1.0)]
    cases += [(Sector(b), 2 * b, 2 * b * b) for b in (0.6, 1.0)]
    cases += [
        (Janowski(a, b), a - b, -b * (a - b))
        for a, b in ((2.0, -1.0), (1.0, -0.3), (0.5 + 0.2j, 0.3 - 0.4j))
    ]
    for d, alpha1, alpha2 in cases:
        assert abs(d.alpha1 - alpha1) <= 1e-15 * abs(alpha1), d.spec_string()
        assert abs(d.alpha2 - alpha2) <= 1e-15 * abs(alpha2), d.spec_string()


def test_make_domain_catalog():
    cases = [
        (DomainSpec("halfplane", {}), HalfPlane),
        (DomainSpec("halfplane", {"alpha": 0.5}), HalfPlane),
        (DomainSpec("sector", {"beta": 0.5}), Sector),
        (DomainSpec("janowski", {"A": 2.0, "B": -1.0}), Janowski),
        (DomainSpec("kucv", {"k": 0.5}), ConicSection),
    ]
    for spec, cls in cases:
        assert isinstance(make_domain(spec), cls)


def test_make_domain_rejects_unknown():
    with pytest.raises(ValueError):
        make_domain(DomainSpec("parabola", {}))
    with pytest.raises(ValueError):
        make_domain(DomainSpec("halfplane", {"alpha": 0.5, "extra": 1.0}))


def test_spec_string_identifies_domain():
    assert HalfPlane(0.5).spec_string() == "halfplane:alpha=0.5"
    assert ConicSection(1.0).spec_string() == "kucv:k=1"
    assert Sector(0.1234567).spec_string() == "sector:beta=0.1234567"


def test_spec_string_parses_back_to_every_parameter_exactly():
    # An error message that names a domain by its spec must name the
    # very domain that failed, so the spec keeps every bit.
    rng = np.random.default_rng(13)

    def params(d):
        return {k: v for k, v in vars(d).items() if not k.startswith("_")}

    for i in range(300):
        u = rng.uniform(size=6)
        scale = 10.0 ** int(rng.integers(-12, 3))
        a = scale * complex(*rng.standard_normal(2))
        b = u[3] * cmath.exp(2j * math.pi * u[4])
        if i % 2:
            a, b = a.real, b.real
        for d in (
            HalfPlane(min(scale * (2 * u[0] - 1), 0.99)),
            Sector(1 - u[1]),
            Janowski(a, b),
            ConicSection(u[5]),
        ):
            back = make_domain(parse_domain(d.spec_string()))
            assert type(back) is type(d) and params(back) == params(d), d.spec_string()


def test_conic_taylor_reaches_order_64():
    # The closed-form series, summed at z = 0.3, reproduces the map's
    # own evaluation: the two share no code.
    for k in (0.5, 1.0):
        d = ConicSection(k)
        co = d.taylor(64).coeffs
        value = sum(c * 0.3**p for p, c in enumerate(co))
        assert abs(value - d.eval(0.3)) <= 1e-12


CATALOG = (HalfPlane(0.5), Sector(0.5), Janowski(2, -1), ConicSection(0.5), ConicSection(1.0))


def test_eval_on_arrays_matches_points():
    zs = np.asarray(RNG_POINTS)
    for d in CATALOG:
        got = d.eval(zs)
        assert got.shape == zs.shape
        # Array kernels of numpy may round differently in the last bit.
        assert all(abs(got[i] - d.eval(z)) <= 1e-15 * abs(got[i]) for i, z in enumerate(RNG_POINTS))
    with pytest.raises(ValueError):
        HalfPlane().eval(np.asarray([0.5, 1.0]))


@pytest.mark.parametrize("d", CATALOG, ids=lambda d: d.spec_string())
def test_eval_never_writes_its_argument(d):
    # The kernels work in place only on arrays of their own: the
    # argument, a strided slice and a 0-d array come back unchanged, and
    # the result shares no memory with them.
    zs = np.asarray(RNG_POINTS).reshape(5, 10)
    for z in (zs, zs[1:, ::3], np.asarray(zs[2, 3])):
        before = z.copy()
        w = d.eval(z)
        assert z.tobytes() == before.tobytes()
        assert not np.shares_memory(w, z)
    assert type(d.eval(np.asarray(zs[2, 3]))) is complex
    assert type(d.eval(RNG_POINTS[0])) is complex
