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
import re

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
from schurvar import domains
from schurvar.cli import parse_domain

_rng = np.random.default_rng(3)
RNG_POINTS = [
    0.95 * r * cmath.exp(1j * t)
    for r, t in zip(_rng.uniform(0.05, 1, 50), _rng.uniform(-np.pi, np.pi, 50))
]


def test_halfplane_taylor_is_constant_tail():
    t = HalfPlane().taylor(5)
    assert all(abs(c - 2) <= 1e-15 for c in t.coeffs[1:])
    t = HalfPlane(0.5).taylor(5)
    assert all(abs(c - 1) <= 1e-15 for c in t.coeffs[1:])


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


SIGNED_ZEROS = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.08, -0.16, 1e-9, -3.0])
def test_halfplane_keeps_its_bits(alpha):
    # The half-plane is Janowski(1 - 2 alpha, -1); it must still give the
    # bits of its own expressions, signed zeros included.
    d = HalfPlane(alpha)
    z = np.array(RNG_POINTS + SIGNED_ZEROS + [complex(0.5, -0.0), complex(-0.0, 0.5)])
    want = ((1 - 2 * alpha) * z + 1) / (1 - z)
    assert np.array_equal(d.eval(z).view(np.uint64), want.view(np.uint64))
    for p, w in zip(z, want):
        got = d.eval(complex(p))
        assert type(got) is complex
        assert np.array([got]).view(np.uint64).tolist() == np.array([w]).view(np.uint64).tolist()
    r = np.array([0.0, 1e-300, 0.3, 0.9, 0.999999])
    want = (1 + abs(1 - 2 * alpha) * r) / (1 - r)
    got = np.array([d.max_modulus(float(x)) for x in r])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # The Taylor constant rounds once, not as fl(1 - 2 alpha) + 1.
    assert d.taylor(8).coeffs == (1 + 0j,) + (complex(2 * (1 - alpha)),) * 8


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


def test_conic_taylor_is_real():
    for k in (0.4, 1.0):
        t = ConicSection(k).taylor(8)
        assert max(abs(c.imag) for c in t.coeffs) <= 1e-12


def test_conic_validation():
    with pytest.raises(ValueError):
        ConicSection(1.2)
    with pytest.raises(ValueError):
        ConicSection(-0.1)


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


@pytest.mark.parametrize("kind, params, message", [
    ("parabola", {}, "unknown domain kind 'parabola'"),
    ("sector", {}, "domain kind 'sector' requires parameter 'beta'"),
    ("janowski", {"A": 2.0}, "domain kind 'janowski' requires parameter 'B'"),
    ("kucv", {"k": 0.5j}, "parameter 'k' must be real"),
    ("halfplane", {"alpha": 0.5, "extra": 1.0}, "unexpected parameter(s) for 'halfplane': extra"),
    ("sector", {"beta": 0.5, "z": 1, "a": 2}, "unexpected parameter(s) for 'sector': a, z"),
    # Two faults: the first check in order names its own.
    ("parabola", {"x": 1}, "unknown domain kind 'parabola'"),
    ("janowski", {"B": 0.5j, "x": 1}, "domain kind 'janowski' requires parameter 'A'"),
    ("sector", {"beta": 1j, "x": 1}, "parameter 'beta' must be real"),
    ("halfplane", {"alpha": 2.0, "x": 1}, "half-plane order must satisfy alpha < 1"),
])
def test_make_domain_rejects_bad_specs(kind, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_domain(DomainSpec(kind, params))


@pytest.mark.parametrize("kind, params, message", [
    ("halfplane", {"alpha": -math.inf}, "parameter 'alpha' must be finite"),
    ("halfplane", {"alpha": math.nan}, "parameter 'alpha' must be finite"),
    ("janowski", {"A": complex(1, math.inf), "B": 0}, "parameter 'A' must be finite"),
    ("janowski", {"A": 2, "B": math.nan}, "parameter 'B' must be finite"),
    ("sector", {"beta": math.inf}, "parameter 'beta' must be finite"),
    ("kucv", {"k": math.nan}, "parameter 'k' must be finite"),
    ("halfplane", {"alpha": -1e308},
     "half-plane order alpha = -1e+308 overflows 1 - 2 alpha, which must be finite"),
    # Checked in turn, after "must be real" and before the map's own range.
    ("kucv", {"k": complex(math.inf, 1)}, "parameter 'k' must be real"),
    ("janowski", {"A": math.inf, "B": 2}, "parameter 'A' must be finite"),
    ("janowski", {"A": 1, "B": math.inf, "x": 1}, "parameter 'B' must be finite"),
])
def test_make_domain_rejects_non_finite_parameters(kind, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_domain(DomainSpec(kind, params))


@pytest.mark.parametrize("build", [
    lambda: HalfPlane(-math.inf),
    lambda: HalfPlane(-1e308),  # 1 - 2 alpha overflows
    lambda: Janowski(2, math.nan),
    lambda: Janowski(math.nan, 0.5),
    lambda: Janowski(complex(0, math.inf), 0),
    lambda: ConicSection(math.nan),
])
def test_constructors_reject_non_finite_parameters(build):
    with pytest.raises(ValueError, match="must be finite$"):
        build()


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


_PANEL = 0.99 * np.sqrt(_rng.uniform(0, 1, (15, 256))) * np.exp(
    2j * np.pi * _rng.uniform(0, 1, (15, 256)))


@pytest.mark.parametrize("kernel", ["_ell", "_sqrt", "_cis"])
def test_kernels_never_write_their_arguments(kernel):
    # On a (15, 256) panel, a strided view of it and a 0-d array.
    args = {
        "_ell": (_PANEL.real.copy(), _PANEL.imag.copy()),
        "_sqrt": (_PANEL,),
        "_cis": (np.angle(_PANEL) / 2,),
    }[kernel]
    for view in (lambda a: a, lambda a: a[::2, 1::3], lambda a: np.asarray(a[4, 7])):
        xs = [view(a) for a in args]
        before = [x.tobytes() for x in xs]
        getattr(domains, kernel)(*xs)
        assert [x.tobytes() for x in xs] == before
