"""Batched traces against points frozen from the scalar per-point trace.

``data/trace_regression.json`` holds points computed by schurvar 0.1.0,
which integrated every boundary point on its own with a scalar adaptive
G7/K15 rule.  The batched trace shares panels between points, so it may
differ in the last digits but never by more than the 1e-12 default
quadrature tolerance.  Cases: halfplane (alpha 0 and 0.5), sector,
Janowski and both kucv branches at |z0| = 0.5, 0.8, 0.95 and
j = -1, 0, 1 with 1-3 tower levels at 32 samples; two boundary-data
single points; one unconstrained cv_region.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from schurvar import (
    HalfPlane,
    QuadratureConfig,
    QuadratureError,
    RegionRequest,
    VariabilityQuery,
    cv_region,
    make_domain,
    region_compute,
)
from schurvar.cli import parse_domain

FROZEN = json.loads((Path(__file__).parent / "data" / "trace_regression.json").read_text())
TOL = 1e-12


def _c(pair):
    return complex(pair[0], pair[1])


def _domain(spec):
    return make_domain(parse_domain(spec))


def _assert_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        w = _c(w)
        assert abs(g - w) <= TOL * max(1.0, abs(w))


@pytest.mark.parametrize(
    "case", FROZEN["regions"], ids=lambda c: f"{c['domain']}-j{c['j']}-r{abs(_c(c['z0'])):.2f}"
)
def test_region_matches_scalar_trace(case):
    req = RegionRequest(
        _domain(case["domain"]),
        tuple(_c(v) for v in case["data"]),
        case["j"],
        _c(case["z0"]),
        samples=FROZEN["samples"],
    )
    res = region_compute(req)
    assert res.is_region
    assert all(type(p) is complex for p in res.polygon.points)
    _assert_close(res.polygon.points, case["points"])


@pytest.mark.parametrize("case", FROZEN["single_points"], ids=lambda c: c["domain"])
def test_single_point_matches_scalar_value(case):
    req = RegionRequest(
        _domain(case["domain"]),
        tuple(_c(v) for v in case["data"]),
        case["j"],
        _c(case["z0"]),
        samples=FROZEN["samples"],
    )
    res = region_compute(req)
    assert res.is_single_point
    _assert_close([res.w0], [case["w0"]])


def test_unconstrained_cv_region_matches_primitive_trace():
    (case,) = FROZEN["cv_unconstrained"]
    query = VariabilityQuery(_domain(case["domain"]), _c(case["z0"]))
    res = cv_region(query, samples=FROZEN["samples"])
    assert res.is_region
    _assert_close(res.polygon.points, case["points"])


def test_batched_trace_past_the_panel_cap_raises():
    # No capped plan meets this budget, and the batch must say so.
    req = RegionRequest(
        HalfPlane(), (0.9,), 0, 0.99, samples=16, quad=QuadratureConfig(1e-300, 1e-300)
    )
    with pytest.raises(QuadratureError) as info:
        region_compute(req)
    msg = str(info.value)
    assert "halfplane:alpha=0" in msg
    assert "z0" in msg
    assert "eps" in msg


def test_non_finite_tower_values_raise_instead_of_a_nan_polygon():
    class Holed(HalfPlane):
        def _eval(self, z):
            return np.where(z.real > 0.6, np.nan, super()._eval(z))

    req = RegionRequest(Holed(), (0.3,), 0, 0.8, samples=16)
    with pytest.raises(QuadratureError) as info:
        region_compute(req)
    assert "non-finite" in str(info.value)
    assert info.value.columns
