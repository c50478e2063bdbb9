"""Series pipeline against coefficients frozen from the Horner-composed path.

``data/series_regression.json`` holds coefficients computed by
schurvar 0.1.0, which composed every Moebius level by Horner's rule in
pure-Python series arithmetic.  The numpy kernel and the one-reciprocal
Moebius levels round differently, so values may move in the last digits
but never by more than 1e-13.  Cases: extremal_coefficients for every
catalog domain (halfplane alpha 0 and 0.5, sector beta 0.5 and 0.1,
three Janowski maps, kucv k 0.5 and 1) at orders 16 and 64 with 2- and
3-level towers; tower_taylor of three towers at order 63; the Moebius
series of four parameters at order 64, now taken as tower_taylor of the
one-level tower (a,) over the leaf z.
"""

import cmath
import json
from pathlib import Path

import numpy as np
import pytest

from schurvar import (
    BlaschkeTower,
    extremal_coefficients,
    make_domain,
    tower_eval,
    tower_taylor,
)
from schurvar.cli import parse_domain

FROZEN = json.loads((Path(__file__).parent / "data" / "series_regression.json").read_text())
TOL = 1e-13


def _c(pair):
    return complex(pair[0], pair[1])


def _assert_close(series, want):
    assert len(series) == len(want)
    assert max(abs(g - _c(w)) for g, w in zip(series.coeffs, want)) <= TOL


@pytest.mark.parametrize(
    "case", FROZEN["extremal"], ids=lambda c: f"{c['domain']}-L{c['levels']}-o{c['order']}"
)
def test_extremal_coefficients_match_frozen(case):
    domain = make_domain(parse_domain(case["domain"]))
    gamma = tuple(_c(g) for g in FROZEN["gammas"][str(case["levels"])])
    s = extremal_coefficients(domain, gamma, _c(FROZEN["eps"]), case["order"])
    _assert_close(s, case["coeffs"])


@pytest.mark.parametrize("case", FROZEN["tower_taylor"], ids=lambda c: f"L{len(c['gamma'])}")
def test_tower_taylor_matches_frozen(case):
    tower = BlaschkeTower(tuple(_c(g) for g in case["gamma"]), _c(case["eps"]))
    _assert_close(tower_taylor(tower, case["order"]), case["coeffs"])


@pytest.mark.parametrize("case", FROZEN["mobius_series"], ids=lambda c: f"a{_c(c['a'])}")
def test_mobius_series_matches_frozen(case):
    _assert_close(tower_taylor(BlaschkeTower((_c(case["a"]),), 1), case["order"]), case["coeffs"])


def test_tower_taylor_order64_polynomial_matches_eval():
    # Independent of the frozen data: the coefficients of a self-map of
    # the disk are bounded by one, so the tail past z^64 at z = 0.3 is
    # below 0.3^65 / 0.7.
    tower = BlaschkeTower((0.2 + 0.1j, -0.5 + 0.3j, 0.35j), 0.9 * cmath.exp(2.0j))
    coeffs = np.array(tower_taylor(tower, 64).coeffs)
    z = 0.3
    poly = np.polynomial.polynomial.polyval(z, coeffs)
    assert abs(poly - tower_eval(tower, z)) <= TOL
