"""Extremal function values against a per-node reference loop.

``data/extremal_regression.json`` is written by
``data/make_extremal_regression.py`` (``--check`` re-derives it), a loop
that never calls ``extremal_f_eval``: it integrates exp Q over [0, z]
at the default budget with one separate ``q_point`` quadrature per
outer node.  Cases: the four catalog domains and Janowski
(1 + 0.5i, -0.7i), four tower vectors (depth 0 to 3), three leaves and
five points z up to |z| = 0.85.  Every value must match within
1e-15 max(1, |w|).
"""

import json
from pathlib import Path

import pytest

from schurvar import extremal_f_eval, make_domain
from schurvar.cli import parse_domain

FROZEN = json.loads((Path(__file__).parent / "data" / "extremal_regression.json").read_text())
TOL = 1e-15


def _c(pair):
    return complex(pair[0], pair[1])


def _id(case):
    return f"{case['domain']}-g{len(case['gamma'])}-e{_c(case['eps'])}-z{_c(case['z'])}"


@pytest.mark.parametrize("case", FROZEN["cases"], ids=_id)
def test_extremal_f_eval_matches_per_node_loop(case):
    domain = make_domain(parse_domain(case["domain"]))
    gamma = tuple(_c(g) for g in case["gamma"])
    got = extremal_f_eval(domain, gamma, _c(case["eps"]), _c(case["z"]))
    want = _c(case["w"])
    assert abs(got - want) <= TOL * max(1.0, abs(want))
