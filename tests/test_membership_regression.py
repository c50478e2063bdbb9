"""Batched membership reports against reports of a per-trial reference loop.

``data/membership_regression.json`` is written by
``data/make_membership_regression.py`` (``--check`` re-derives it), a
loop that never calls ``membership_trial``: it decodes each trial's leaf
from row t of the case's one uniform block, integrates that one
admissible function on its own (default QuadratureConfig) and measures
it against the polygon of ``region_compute``.  Cases: halfplane (alpha
0), sector (beta 0.5), Janowski (2, -1) and kucv (k = 1) at j = -1, 0, 1
and |z0| = 0.3, 0.6, 0.8, 60 trials each, run three ways: degree-0
leaves with inflation 1e-9 ("boundary": every trial lands on the curve,
outside the chord polygon, so every value is reported), the default
degrees and inflation ("default"), and, at |z0| = 0.6, the default
degrees with inflation -inf ("exposed": every Blaschke-leaf value is
reported).  Counts and failing-trial indices must match exactly;
values and distances within 1e-12.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from schurvar import (
    RegionRequest,
    make_domain,
    membership_trial,
    polygon_signed_distance,
    region_compute,
)
from schurvar.cli import parse_domain

FROZEN = json.loads((Path(__file__).parent / "data" / "membership_regression.json").read_text())
TOL = 1e-12
MODES = {
    "boundary": dict(degrees=(0,), inflation=1e-9),
    "default": {},
    "exposed": dict(inflation=-math.inf),
}


def _c(pair):
    return complex(pair[0], pair[1])


def _runs():
    for case in FROZEN["cases"]:
        for mode in MODES:
            if mode in case:
                yield case, mode


@pytest.mark.parametrize(
    "case,mode",
    list(_runs()),
    ids=lambda v: v if isinstance(v, str) else f"{v['domain']}-j{v['j']}-r{abs(_c(v['z0'])):.1f}",
)
def test_membership_matches_per_trial_loop(case, mode):
    rep = membership_trial(
        make_domain(parse_domain(case["domain"])),
        tuple(_c(g) for g in case["gamma"]),
        case["j"],
        _c(case["z0"]),
        case["trials"],
        case["seed"],
        **MODES[mode],
    )
    want = case[mode]
    assert (rep.inside, rep.total) == (want["inside"], want["total"])
    assert [t for t, _, _ in rep.failures] == [t for t, _, _ in want["failures"]]
    assert abs(rep.max_signed_distance - want["max_signed_distance"]) <= TOL
    for (_, value, dist), (_, w, d) in zip(rep.failures, want["failures"]):
        assert type(value) is complex
        assert abs(value - _c(w)) <= TOL * max(1.0, abs(_c(w)))
        assert abs(dist - d) <= TOL


def test_signed_distance_of_an_array_equals_scalar_calls():
    dom = make_domain(parse_domain("sector:beta=0.5"))
    res = region_compute(RegionRequest(dom, (0.2,), 0, 0.6, samples=64))
    p = np.asarray(res.polygon.points)
    rng = np.random.default_rng(3)
    centre = p.mean()
    queries = np.concatenate([
        centre + 1.3 * (p[rng.integers(len(p), size=70)] - centre) * rng.uniform(0, 1, 70),
        p[[0, 17]],  # exactly on a vertex
        0.5 * (p[[5, 40]] + p[[6, 41]]),  # on an edge
    ])
    got = polygon_signed_distance(res.polygon, queries)
    assert got.shape == queries.shape
    assert (got < 0).any() and (got > 0).any()
    assert np.all(got[70:72] == 0)
    for w, d in zip(queries, got):
        one = polygon_signed_distance(res.polygon, complex(w))
        assert type(one) is float
        assert one == d
    grid = polygon_signed_distance(res.polygon, queries[:72].reshape(8, 9))
    assert np.array_equal(grid, got[:72].reshape(8, 9))
    assert polygon_signed_distance(res.polygon, queries[:0]).shape == (0,)
