"""Schur recursion against parameters frozen from the renormalizing recursion.

``data/schur_regression.json`` holds outputs of schurvar 0.1.0, whose
``schur_parameters`` renormalized the data at every level with a
triangular solve.  Cases:

- ``dyadic``: the boundary family z^lead s_a(u z) truncated to n
  coefficients, a in {0.5, -0.5, 0.5i, -0.25, 0.25i, 0.75}, u in
  {1, -1, i, -i}, lead in {0, 1, 2}, n in {2, 9, 33}, plain (every step
  exact in binary, so the tail is exactly zero) and perturbed by about
  1e-6 after the unimodular parameter (a tail of INF);
- ``strata``: interior data of random towers as the benchmark draws
  them, n = 9 with |gamma| <= 0.8 and n = 33 with |gamma| <= 0.5, with
  the generating parameters;
- ``cases``: zero-head data (0, c1[, c2]) as cv_region builds them,
  with interior and unimodular c1; unimodular c0 with zero and random
  tails; |c0| > 1; exterior data after 0-3 interior levels.

Classification, boundary index and the first INF must match exactly, as
must every boundary tail and every tail after a stop at index 0.  After
a first INF at a later index, a tail may differ in which positions
round to zero.  Finite parameters agree within 1e-11.
"""

import json
from pathlib import Path

import pytest

from schurvar import INF, Classification, schur_parameters

FROZEN = json.loads((Path(__file__).parent / "data" / "schur_regression.json").read_text())
TOL = 1e-11


def _dec(v):
    if v == "inf":
        return INF
    return 0j if v == 0 else complex(v[0], v[1])


def dyadic(a, u, lead, n, perturbed):
    """First n coefficients of z^lead s_a(u z), optionally perturbed after the head."""
    s = (a,) + tuple((1 - abs(a) ** 2) * (-a.conjugate()) ** (k - 1) * u**k for k in range(1, n))
    data = ((0j,) * lead + s)[:n]
    if perturbed:
        data = data[: lead + 2] + tuple(
            c + 1e-6 * complex(1, p % 5 - 2) / p for p, c in enumerate(data[lead + 2 :], lead + 2)
        )
    return data


def _first_inf(gamma):
    return next((i for i, g in enumerate(gamma) if g is INF), None)


def _assert_matches(sp, case):
    want = tuple(_dec(g) for g in case["gamma"])
    assert sp.classification is Classification(case["classification"])
    assert sp.boundary_index == case["boundary_index"]
    assert len(sp.gamma) == len(want)
    assert _first_inf(sp.gamma) == _first_inf(want)
    stop = case["boundary_index"]
    if sp.classification is Classification.BOUNDARY or stop == 0:
        assert sp.gamma[stop + 1 :] == want[stop + 1 :]
    head = len(want) if stop is None else stop + 1
    assert max(abs(g - w) for g, w in zip(sp.gamma[:head], want[:head])) <= TOL


@pytest.mark.parametrize("n", [2, 9, 33])
@pytest.mark.parametrize("lead", [0, 1, 2])
def test_dyadic_boundary_family_matches_frozen(n, lead):
    cases = [c for c in FROZEN["dyadic"] if c["n"] == n and c["lead"] == lead]
    assert len(cases) == 48
    for case in cases:
        a, u = _dec(case["a"]), _dec(case["u"])
        sp = schur_parameters(dyadic(a, u, lead, n, case["perturbed"]))
        _assert_matches(sp, case)
        if not case["perturbed"] and n > lead + 1:
            assert sp.classification is Classification.BOUNDARY, (a, u)
            assert all(g == 0 for g in sp.gamma[lead + 2 :]), (a, u)


@pytest.mark.parametrize("case", FROZEN["strata"], ids=lambda c: f"n{len(c['data'])}")
def test_interior_strata_match_frozen(case):
    sp = schur_parameters([_dec(c) for c in case["data"]])
    _assert_matches(sp, case)
    # The generating parameters are an independent reference.
    assert max(abs(g - _dec(w)) for g, w in zip(sp.gamma, case["generator"])) <= 1e-10


@pytest.mark.parametrize("case", FROZEN["cases"], ids=lambda c: c["kind"])
def test_edge_cases_match_frozen(case):
    _assert_matches(schur_parameters([_dec(c) for c in case["data"]]), case)
