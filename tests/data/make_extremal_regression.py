"""Regenerate ``extremal_regression.json`` from a per-node reference loop.

    python tests/data/make_extremal_regression.py           # rewrite the file
    python tests/data/make_extremal_regression.py --check   # compare; exit 1 on a difference

The loop never calls ``extremal_f_eval``.  It integrates
f(z) = int_0^z exp Q(zeta) d zeta with ``integrate_segment`` at the
default budget, and evaluates Q at every outer node on its own: one
``q_point`` per node (data (0, gamma...), weight -1, leaf eps, a tenth of
the outer budget), each an adaptive quadrature over [0, node].

Cases: halfplane (alpha 0), sector (beta 0.5), Janowski (2, -1), kucv
(k = 1) and Janowski (1 + 0.5i, -0.7i); gamma (), (0.3,), (0.3, 0.1),
(0.2i, -0.4, 0.1 + 0.1i); eps 1, 0.5i, -0.8 + 0.1i; z 1e-4, 0.25, 0.6i,
-0.5 + 0.3i, 0.85.  ``--check`` requires every value within
1e-15 max(1, |w|), as the regression test does.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from schurvar import QuadratureConfig, integrate_segment, make_domain, q_point
from schurvar.cli import parse_domain

PATH = Path(__file__).parent / "extremal_regression.json"
TOL = 1e-15
DOMAINS = (
    "halfplane:alpha=0",
    "sector:beta=0.5",
    "janowski:A=2,B=-1",
    "kucv:k=1",
    "janowski:A=1+0.5i,B=-0.7i",
)
GAMMAS = ((), (0.3,), (0.3, 0.1), (0.2j, -0.4, 0.1 + 0.1j))
EPSILONS = (1, 0.5j, -0.8 + 0.1j)
POINTS = (1e-4, 0.25, 0.6j, -0.5 + 0.3j, 0.85)


def _pair(v):
    v = complex(v)
    return [v.real, v.imag]


def reference(domain, gamma, eps, z):
    """f(z) with one separate q_point quadrature per outer node."""
    cfg = QuadratureConfig()
    inner = QuadratureConfig(cfg.abs_tol / 10, cfg.rel_tol / 10)
    full = (0j,) + tuple(complex(v) for v in gamma)

    def f(zeta):
        return np.exp([q_point(domain, full, -1, node, eps, inner) for node in zeta])

    return complex(integrate_segment(f, z, cfg))


def generate():
    out = []
    for spec in DOMAINS:
        domain = make_domain(parse_domain(spec))
        for gamma in GAMMAS:
            for eps in EPSILONS:
                for z in POINTS:
                    out.append(dict(
                        domain=spec,
                        gamma=[_pair(g) for g in gamma],
                        eps=_pair(eps),
                        z=_pair(z),
                        w=_pair(reference(domain, gamma, eps, z)),
                    ))
    return {"cases": out}


def differences(got, want):
    """Where two files disagree: case parameters exactly, values within TOL."""
    if len(got["cases"]) != len(want["cases"]):
        return [f"{len(got['cases'])} cases, want {len(want['cases'])}"]
    found = []
    for n, (g, w) in enumerate(zip(got["cases"], want["cases"])):
        where = f"case {n} ({w['domain']}, gamma {w['gamma']}, eps {w['eps']}, z {w['z']})"
        spec = ("domain", "gamma", "eps", "z")
        if [g[k] for k in spec] != [w[k] for k in spec]:
            found.append(f"{where}: case parameters differ")
            continue
        want_w = complex(*w["w"])
        if abs(complex(*g["w"]) - want_w) > TOL * max(1.0, abs(want_w)):
            found.append(f"{where}: value differs")
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
