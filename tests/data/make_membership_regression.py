"""Regenerate ``membership_regression.json`` from a per-trial reference loop.

    python tests/data/make_membership_regression.py           # rewrite the file
    python tests/data/make_membership_regression.py --check   # compare; exit 1 on a difference

The loop never calls ``membership_trial``.  It shares with it only the
documented draw scheme: one ``default_rng(seed).random((trials,
2 + 2 max(degrees)))`` block per case, whose row t it decodes on its own
(degree from u_0, phase e^{2 pi i u_1}, zero k 0.9 sqrt(u_{2k+2})
e^{2 pi i u_{2k+3}}).  For each trial it builds a closure for that one
admissible function, zeta^j (g(zeta) - g(0)) with g = P(tower over
zeta B(zeta)), integrates it alone with ``integrate_segment`` (default
budget), and measures the value against the polygon ``region_compute``
traces from the tower's Caratheodory data with its own loop over the
polygon's segments (``signed_distance``), not ``polygon_signed_distance``.

Cases: halfplane (alpha 0), sector (beta 0.5), Janowski (2, -1) and kucv
(k = 1) at j = -1, 0, 1 and |z0| = 0.3, 0.6, 0.8, 60 trials each, run as
"boundary" (degree-0 leaves, inflation 1e-9), "default" (degrees 1..4,
inflation 1e-6) and, at |z0| = 0.6, "exposed" (degrees 1..4, inflation
-inf).  ``--check`` requires counts and failing-trial indices to match
exactly, and values and distances within 1e-12, as the regression test
does.
"""

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

import numpy as np

from schurvar import (
    BlaschkeTower,
    RegionRequest,
    integrate_segment,
    make_domain,
    mobius_eval,
    region_compute,
    tower_taylor,
)
from schurvar.cli import parse_domain

PATH = Path(__file__).parent / "membership_regression.json"
TRIALS = 60
TOL = 1e-12
DOMAINS = ("halfplane:alpha=0", "sector:beta=0.5", "janowski:A=2,B=-1", "kucv:k=1")
GAMMAS = ((0.2,), (0j, 0.3 - 0.1j), (0.1 + 0.2j, -0.25, 0.15j))
RADII = (0.3, 0.6, 0.8)
MODES = {
    "boundary": ((0,), 1e-9),
    "default": ((1, 2, 3, 4), 1e-6),
    "exposed": ((1, 2, 3, 4), -math.inf),
}


def _pair(v):
    v = complex(v)
    return [v.real, v.imag]


def cases():
    for i in range(36):
        modes = ("boundary", "default", "exposed") if i % 3 == 1 else ("boundary", "default")
        yield dict(
            domain=DOMAINS[i // 9],
            gamma=GAMMAS[i % 3],
            j=(i // 3) % 3 - 1,
            z0=RADII[i % 3] * cmath.exp(1j * (0.4 + 0.9 * i)),
            seed=1000 + 17 * i,
        ), modes


def admissible_integrand(domain, gamma, j, phase, zeros):
    """zeta^j (g(zeta) - g(0)) for g = P(tower over zeta B(zeta)), climbed by hand."""
    base = domain.eval(gamma[0])

    def f(zeta):
        w = phase
        for a in zeros:
            w = w * (zeta - a) / (1 - a.conjugate() * zeta)
        w = zeta * w
        for g in gamma[:0:-1]:
            w = zeta * mobius_eval(g, w)
        return zeta**j * (domain.eval(mobius_eval(gamma[0], w)) - base)

    return f


def signed_distance(points, w):
    """Distance from w to the nearest clipped segment of the closed polygon,
    negated when w lies on the inner side of every edge (the sign test of
    a convex polygon, either orientation)."""
    edges = list(zip(points, points[1:] + points[:1]))
    turn = 1 if sum((a.conjugate() * b).imag for a, b in edges) >= 0 else -1
    best, inside = math.inf, True
    for a, b in edges:
        e, rel = b - a, w - a
        t = 0.0 if e == 0 else min(1.0, max(0.0, (rel * e.conjugate()).real / abs(e) ** 2))
        best = min(best, abs(w - (a + t * e)))
        inside = inside and turn * (e.conjugate() * rel).imag >= 0
    return -best if inside else best


def report(domain, gamma, j, z0, seed, degrees, inflation):
    data = tower_taylor(BlaschkeTower(gamma, 0), len(gamma) - 1).coeffs
    polygon = region_compute(RegionRequest(domain, data, j, z0)).polygon
    u = np.random.default_rng(seed).random((TRIALS, 2 + 2 * max(degrees))).tolist()
    inside, worst, failures = 0, -math.inf, []
    for t, row in enumerate(u):
        degree = degrees[int(row[0] * len(degrees))]
        phase = cmath.exp(2j * math.pi * row[1])
        zeros = [
            0.9 * math.sqrt(row[2 * k + 2]) * cmath.exp(2j * math.pi * row[2 * k + 3])
            for k in range(degree)
        ]
        value = complex(integrate_segment(admissible_integrand(domain, gamma, j, phase, zeros), z0))
        dist = signed_distance(polygon.points, value)
        worst = max(worst, dist)
        if dist <= inflation:
            inside += 1
        else:
            failures.append([t, _pair(value), dist])
    return dict(inside=inside, total=TRIALS, max_signed_distance=worst, failures=failures)


def generate():
    out = []
    for case, modes in cases():
        domain = make_domain(parse_domain(case["domain"]))
        entry = dict(
            domain=case["domain"],
            gamma=[_pair(g) for g in case["gamma"]],
            j=case["j"],
            z0=_pair(case["z0"]),
            trials=TRIALS,
            seed=case["seed"],
        )
        for mode in modes:
            entry[mode] = report(domain, case["gamma"], case["j"], case["z0"], case["seed"], *MODES[mode])
        out.append(entry)
    return {"trials": TRIALS, "cases": out}


def differences(got, want):
    """Where two files disagree: exact counts and indices, values within TOL."""
    if len(got["cases"]) != len(want["cases"]):
        return [f"{len(got['cases'])} cases, want {len(want['cases'])}"]
    found = []
    for n, (g, w) in enumerate(zip(got["cases"], want["cases"])):
        where = f"case {n} ({w['domain']}, j = {w['j']})"
        spec = ("domain", "gamma", "j", "z0", "trials", "seed")
        if [g[k] for k in spec] != [w[k] for k in spec]:
            found.append(f"{where}: case parameters differ")
            continue
        if [m for m in MODES if m in g] != [m for m in MODES if m in w]:
            found.append(f"{where}: modes differ")
            continue
        for mode in (m for m in MODES if m in w):
            a, b = g[mode], w[mode]
            if (a["inside"], a["total"]) != (b["inside"], b["total"]):
                found.append(f"{where} {mode}: counts {a['inside']}/{a['total']}, want {b['inside']}/{b['total']}")
            elif [f[0] for f in a["failures"]] != [f[0] for f in b["failures"]]:
                found.append(f"{where} {mode}: failing trials differ")
            elif abs(a["max_signed_distance"] - b["max_signed_distance"]) > TOL:
                found.append(f"{where} {mode}: max_signed_distance differs")
            else:
                for (t, va, da), (_, vb, db) in zip(a["failures"], b["failures"]):
                    vb = complex(*vb)
                    if abs(complex(*va) - vb) > TOL * max(1.0, abs(vb)) or abs(da - db) > TOL:
                        found.append(f"{where} {mode}: trial {t} differs")
                        break
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the committed file instead of rewriting it")
    args = ap.parse_args(argv)
    got = generate()
    if not args.check:
        PATH.write_text(json.dumps(got, separators=(",", ":")))
        return 0
    found = differences(got, json.loads(PATH.read_text()))
    for line in found:
        print(line, file=sys.stderr)
    print(f"{PATH.name}: {'differs' if found else 'reproduced'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
