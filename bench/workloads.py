"""Seeded inputs, requests and output gates of the three workloads.

Every request is an ``Op``: a zero-argument call into schurvar's public
API plus a gate that checks the returned value against an independent
oracle (``checks``) at tolerances no looser than the repository's
acceptance criteria.  The library is always reached through module
attributes (``regions.region_compute``, never a name imported into this
file), so the traced run can install its wrappers where each name is
looked up and this file never needs to know about them.

Inputs are drawn per block from ``numpy.random.default_rng((seed,
workload, block))``.  A block is a fixed stratified mix of requests;
only continuous parameters (phases, moduli, data) depend on the seed, so
different seeds load every layer in the same proportions.  All blocks
are generated during set-up, before anything is timed.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# (kind, params) of every catalog domain the workloads draw from.
CATALOG = (
    ("halfplane", {"alpha": 0.0}),
    ("halfplane", {"alpha": 0.5}),
    ("sector", {"beta": 0.5}),
    ("sector", {"beta": 0.1}),
    ("janowski", {"A": 2.0, "B": -1.0}),
    ("janowski", {"A": -2.0, "B": -1.0}),
    ("janowski", {"A": 1.0, "B": -1.0}),
    ("kucv", {"k": 0.5}),
    ("kucv", {"k": 1.0}),
)
# ConicSection.taylor cannot extract coefficients beyond order 16 (k=0.5)
# or 20 (k=1): it raises ValueError after 2^16 samples.  Order-64 series
# requests therefore leave the kucv domains out.
CLOSED_FORM_TAYLOR = tuple(c for c in CATALOG if c[0] != "kucv")

RADII = (0.5, 0.8, 0.95)
MEMBERSHIP_TOL = 1e-9


@dataclass
class Op:
    """One closed-loop request and the gate for its answer."""

    kind: str  # request kind, for per-kind statistics
    tag: str  # stratum inside the kind, e.g. r095, n33, o64
    work: int  # units counted by ops_per_s (trials for membership)
    run: Callable[[], object]
    check: Callable[[object], str | None]  # failure reason, or None
    corrupt: Callable[[object], object]  # deliberately wrong copy of an answer


def radius_tag(r: float) -> str:
    """Stratum label of an endpoint modulus: r05, r08 or r095."""
    if r < 0.65:
        return "r05"
    if r < 0.9:
        return "r08"
    return "r095"


def _unit(rng) -> complex:
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _disk(rng, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * _unit(rng)


def _strata(rng, rows: int, cols: int) -> np.ndarray:
    """Values in [0, 1): each column holds one from each slice [k/rows, (k+1)/rows)."""
    cells = np.arange(rows)[:, None] + rng.uniform(0.0, 1.0, (rows, cols))
    return rng.permuted(cells, axis=0) / rows


def _thetas(samples: int) -> np.ndarray:
    return -np.pi + 2 * np.pi * np.arange(samples) / samples


def _cli_complex(z: complex) -> str:
    """Exact decimal form that schurvar.cli.parse_complex reads back bit-for-bit."""
    im = repr(z.imag)
    return f"{z.real!r}{im if im.startswith('-') else '+' + im}i"


def _cli_list(values) -> str:
    return ",".join(_cli_complex(complex(v)) for v in values)


def _spec_string(kind: str, params: dict) -> str:
    return kind + ":" + ",".join(f"{k}={_cli_complex(complex(v))}" for k, v in params.items())


class Program:
    """The schurvar modules, imported once, plus one map per catalog entry."""

    def __init__(self, src_dir: str):
        from schurvar import cli, domains, oracle, quadrature, regions, schur, series, variability

        self.src_dir = src_dir
        self.cli = cli
        self.domains = domains
        self.oracle = oracle
        self.quadrature = quadrature
        self.regions = regions
        self.schur = schur
        self.series = series
        self.variability = variability
        self.failures = (quadrature.QuadratureError, ZeroDivisionError, RuntimeError, ValueError)
        self.maps = {
            (kind, tuple(params.items())): domains.make_domain(domains.DomainSpec(kind, params))
            for kind, params in CATALOG
        }

    def domain(self, kind: str, params: dict):
        return self.maps[(kind, tuple(params.items()))]


class Workload:
    """Base: pre-generated blocks of ops, plus the warm-up run in set-up."""

    name = ""
    # ConicSection Taylor orders that set-up extracts (lazy in the library).
    kucv_taylor_orders: tuple[int, ...] = ()

    def __init__(self, prog: Program, seed: int, n_blocks: int, tiny: bool):
        self.prog = prog
        self.seed = seed
        self.blocks = [self.make_block(b) for b in range(n_blocks)]

    def rng(self, block: int):
        return np.random.default_rng((self.seed, sum(map(ord, self.name)), block))

    def make_block(self, b: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        for kind, params in CATALOG:
            dom = self.prog.domain(kind, params)
            for order in self.kucv_taylor_orders if kind == "kucv" else ():
                dom.taylor(order)


# --------------------------------------------------------------------------
# trace: region queries at 256 samples, the paper's main operation.


class TraceWorkload(Workload):
    """27 region_compute + 9 cv_region + 3 degenerate cv_region per block."""

    name = "trace"
    kucv_taylor_orders = (2,)  # alpha2, needed by the a2/a3 bridge

    def __init__(self, prog, seed, n_blocks, tiny):
        self.samples = 32 if tiny else 256
        super().__init__(prog, seed, n_blocks, tiny)

    def make_block(self, b):
        rng = self.rng(b)
        ops = []
        for d, (kind, params) in enumerate(CATALOG):
            for ri, r in enumerate(RADII):
                special = "general"
                if kind == "halfplane" and params["alpha"] == 0.0:
                    special = ("gronwall", "double_zero", "general")[(b + ri) % 3]
                ops.append(self._region_op(rng, kind, params, r, special, d + ri))
        for i, constraint in enumerate(("none", "a2", "a2a3") * 3):
            kind, params = CATALOG[(9 * b + i) % len(CATALOG)]
            ops.append(self._cv_op(rng, kind, params, RADII[i // 3], constraint))
        for i, degenerate in enumerate(("a2a3-point", "a2a3-empty", "a2-point")):
            kind, params = CLOSED_FORM_TAYLOR[(3 * b + i) % len(CLOSED_FORM_TAYLOR)]
            ops.append(self._degenerate_op(rng, kind, params, degenerate))
        return ops

    def _region_gate(self, res, kind, params, gamma, j, z0):
        """Every traced region: kind, convexity, and each boundary point
        against the Gauss-Legendre oracle for its tower."""
        if not res.is_region:
            return f"expected a region, got {res.kind}"
        if not self.prog.regions.polygon_convexity(res.polygon, tol=1e-9):
            return "region is not convex"
        eps = np.exp(1j * _thetas(self.samples))
        want = checks.tower_integrals(kind, params, gamma, j, z0, eps)
        err = checks.max_rel_error(res.polygon.points, want)
        if err > 1e-9:
            return f"boundary differs from the Gauss-Legendre oracle by {err:.2e}"
        return None

    def _region_op(self, rng, kind, params, r, special, salt):
        prog = self.prog
        dom = prog.domain(kind, params)
        z0 = r * _unit(rng)
        if special == "gronwall":
            lam = float(rng.uniform(0.0, 0.9))
            gamma, data, j = (0j, complex(lam)), (0j, complex(lam)), -1
        elif special == "double_zero":
            gamma, data, j = (0j, 0j), (0j, 0j), -1
        else:
            n = 1 + salt % 3
            j = int(rng.integers(-1, 2))
            gamma = [_disk(rng, 0.0, 0.3) for _ in range(n)]
            if n > 1 and rng.uniform() < 0.25:
                gamma[1] = _disk(rng, 0.5, 0.9)  # the minority close to |gamma1| = 1
            data = checks.data_from_schur([gamma], n)[0]
        req = prog.regions.RegionRequest(dom, data, j, z0, samples=self.samples)

        def check(res):
            reason = self._region_gate(res, kind, params, gamma, j, z0)
            if reason is not None:
                return reason
            pts = np.asarray(res.polygon.points)
            eps = np.exp(1j * _thetas(self.samples))
            if special == "gronwall":
                _, curve = prog.oracle.gronwall_curve(z0, data[1].real, self.samples)
                h = prog.regions.hausdorff(pts, curve)
                if h > 1e-7:
                    return f"Hausdorff distance to the closed-form curve {h:.2e}"
            if special == "double_zero":
                err = float(np.max(np.abs(pts + np.log(1 - eps * z0 * z0))))
                if err > 1e-9:
                    return f"double-zero region differs from -log(1 - eps z0^2) by {err:.2e}"
            return None

        return Op("region", radius_tag(r), 1, lambda: prog.regions.region_compute(req), check, _push_vertex)

    def _cv_op(self, rng, kind, params, r, constraint):
        prog = self.prog
        var = prog.variability
        dom = prog.domain(kind, params)
        z0 = r * _unit(rng)
        a1, a2 = checks.domain_alphas(kind, params)
        if constraint == "none":
            gamma, con = (0j,), None
        elif constraint == "a2":
            g1 = _disk(rng, 0.0, 0.6)
            gamma, con = (0j, g1), var.FixedA2(g1 * a1 / 2)
        else:
            g1 = _disk(rng, 0.0, 0.6)
            g2 = _disk(rng, 0.0, 0.6)
            lam, mu = _inverse_bridge(a1, a2, g1, g2)
            gamma, con = (0j, g1, g2), var.FixedA2A3(lam, mu)
        query = var.VariabilityQuery(dom, z0, con)

        def check(res):
            reason = self._region_gate(res, kind, params, gamma, -1, z0)
            if reason is None and constraint == "none" and kind == "halfplane" and params["alpha"] == 0.0:
                eps = np.exp(1j * _thetas(self.samples))
                err = float(np.max(np.abs(np.asarray(res.polygon.points) + 2 * np.log(1 - eps * z0))))
                if err > 1e-10:
                    return f"unconstrained region differs from -2 log(1 - z) by {err:.2e}"
            return reason

        return Op(
            "cv", constraint, 1,
            lambda: var.cv_region(query, samples=self.samples), check, _push_vertex,
        )

    def _degenerate_op(self, rng, kind, params, degenerate):
        """Bridges that land on |gamma1| = 1: a single point or nothing."""
        prog = self.prog
        var = prog.variability
        dom = prog.domain(kind, params)
        z0 = _disk(rng, 0.3, 0.9)
        a1, a2 = checks.domain_alphas(kind, params)
        u = _unit(rng)
        lam = u * a1 / 2
        if degenerate == "a2-point":
            con = var.FixedA2(lam)
        else:
            mu = 2 * (a1 * a1 + a2) * lam * lam / (3 * a1 * a1)
            if degenerate == "a2a3-empty":
                mu += 0.05 * _unit(rng)
            con = var.FixedA2A3(lam, mu)
        query = var.VariabilityQuery(dom, z0, con)
        want_kind = "empty" if degenerate == "a2a3-empty" else "single_point"

        def check(res):
            if res.kind != want_kind:
                return f"expected {want_kind}, got {res.kind}"
            if want_kind == "single_point":
                # The rigid extremal is omega(z) = gamma1 z with gamma1 = u.
                want = checks.tower_integrals(kind, params, (0j,), -1, z0, np.asarray([u]))[0]
                err = abs(res.w0 - want) / max(1.0, abs(want))
                if err > 1e-9:
                    return f"single point differs from the oracle by {err:.2e}"
            return None

        def corrupt(res):
            return prog.regions.RegionResult.empty(res.schur) if res.is_single_point else (
                prog.regions.RegionResult.single_point(0j, res.schur)
            )

        return Op("cv", degenerate, 1, lambda: var.cv_region(query, samples=self.samples), check, corrupt)

    def warm_up(self):
        super().warm_up()
        prog = self.prog
        for kind, params in CATALOG:
            dom = prog.domain(kind, params)
            prog.regions.region_compute(prog.regions.RegionRequest(dom, (0.1, 0.1), 0, 0.5, samples=8))
            prog.variability.cv_region(prog.variability.VariabilityQuery(dom, 0.5, None), samples=8)


def _inverse_bridge(a1, a2, g1, g2):
    """(gamma1, gamma2) -> (a2, a3): the bridge formula solved for mu."""
    lam = g1 * a1 / 2
    num = g2 * a1 * a1 * (abs(a1) ** 2 - 4 * abs(lam) ** 2) / (2 * np.conj(a1))
    mu = (num + 2 * (a1 * a1 + a2) * lam * lam) / (3 * a1 * a1)
    return complex(lam), complex(mu)


def _push_vertex(res):
    """Copy of a region result with one vertex pushed outward by 10%."""
    poly = res.polygon
    pts = list(poly.points)
    centre = sum(pts) / len(pts)
    pts[len(pts) // 3] = centre + 1.1 * (pts[len(pts) // 3] - centre)
    new = type(poly)(tuple(pts), poly.thetas, poly.z0, poly.j, poly.gamma)
    return type(res).region(new, res.schur)


# --------------------------------------------------------------------------
# membership: Monte-Carlo admissible samples against the traced polygon.


class MembershipWorkload(Workload):
    """18 membership_trial cases per block: 9 domains x 2 bands of |z0|."""

    name = "membership"

    def __init__(self, prog, seed, n_blocks, tiny):
        self.trials = 20 if tiny else 200
        self.samples = 32 if tiny else 256
        super().__init__(prog, seed, n_blocks, tiny)

    def make_block(self, b):
        rng = self.rng(b)
        ops = []
        for d, (kind, params) in enumerate(CATALOG):
            for lo, hi in ((0.15, 0.475), (0.475, 0.8)):
                n = 1 + (b + d + int(lo > 0.2)) % 3
                gamma = tuple(_disk(rng, 0.0, 0.3) for _ in range(n))
                z0 = _disk(rng, lo, hi)
                ops.append(self._case(kind, params, gamma, z0, int(rng.integers(2**31))))
        return ops

    def _case(self, kind, params, gamma, z0, trial_seed):
        prog = self.prog
        dom = prog.domain(kind, params)
        cfg = prog.quadrature.QuadratureConfig(abs_tol=MEMBERSHIP_TOL, rel_tol=MEMBERSHIP_TOL)
        trials = self.trials

        def run():
            return prog.oracle.membership_trial(
                dom, gamma, -1, z0, trials, trial_seed, cfg, samples=self.samples
            )

        def check(rep):
            if not rep.inside == rep.total == trials:
                return f"{rep.total - rep.inside} of {rep.total} samples outside (1e-6 inflation)"
            return None

        def corrupt(rep):
            return type(rep)(rep.inside - 1, rep.total, rep.max_signed_distance, rep.failures)

        return Op("trials", radius_tag(abs(z0)), trials, run, check, corrupt)

    def warm_up(self):
        super().warm_up()
        cfg = self.prog.quadrature.QuadratureConfig(abs_tol=MEMBERSHIP_TOL, rel_tol=MEMBERSHIP_TOL)
        for kind, params in CATALOG:
            dom = self.prog.domain(kind, params)
            self.prog.oracle.membership_trial(dom, (0.1,), -1, 0.5, 2, 0, cfg, samples=8)


# --------------------------------------------------------------------------
# algebra: Schur recursion, Toeplitz check, series arithmetic, the CLI.


class AlgebraWorkload(Workload):
    """50 requests per block, in fixed proportions.

    30 classify (18 of length 9: 14 interior, 2 boundary, 2 exterior;
    12 of length 33: 8 interior, 2 boundary, 2 exterior), 9
    extremal_coefficients at order 16 (every catalog domain), 7 at order
    64 (every domain with a closed-form Taylor series), 2 in-process
    ``cli.run schur``, 1 in-process ``cli.run extremal`` and 1 cold
    ``python -m schurvar schur``.  With these shares the median request
    is an interior classify request of length 9, well inside that group,
    and the 90th percentile an order-64 series request.
    """

    name = "algebra"
    kucv_taylor_orders = (15,)  # extremal_coefficients at order 16

    def __init__(self, prog, seed, n_blocks, tiny):
        self.orders = (16, 24) if tiny else (16, 64)
        super().__init__(prog, seed, n_blocks, tiny)

    def make_block(self, b):
        rng = self.rng(b)
        cls = self.prog.schur.Classification
        ops = []
        for n, rows in ((9, 14), (33, 8)):
            # Conditioning of the recursion grows like prod 1/(1 - |g|^2).
            top = 0.8 if n == 9 else 0.5
            # Latin hypercube over the rows: at each position the moduli,
            # and the phases, take one value from each of `rows` equal
            # slices of their range.  The cost of toeplitz_membership's
            # power iteration varies 5x with the data; stratified inputs
            # give every seed the same spread of it.
            gammas = top * _strata(rng, rows, n) * np.exp(2j * np.pi * _strata(rng, rows, n))
            interior = checks.data_from_schur(gammas, n)
            for data, gamma in zip(interior, gammas):
                ops.append(self._classify(data, cls.INTERIOR, gamma))
            for i in range(4):
                ops.append(self._classify(*self._edge_data(rng, n, i)))
            if n == 9:
                data9 = interior[:3]
        # Towers of 2 and 3 levels alternate over domains and blocks, so
        # every seed has the same share of each.
        lo, hi = self.orders
        for d, (kind, params) in enumerate(CATALOG):
            ops.append(self._extremal(rng, kind, params, lo, 2 + (b + d) % 2))
        for d, (kind, params) in enumerate(CLOSED_FORM_TAYLOR):
            ops.append(self._extremal(rng, kind, params, hi, 2 + (b + d + 1) % 2))
        ops.append(self._cli_schur(data9[0], cold=False))
        ops.append(self._cli_schur(data9[1], cold=False))
        kind, params = CATALOG[b % len(CATALOG)]
        ops.append(self._cli_extremal(rng, kind, params, lo, 2 + b // len(CATALOG) % 2))
        ops.append(self._cli_schur(data9[2], cold=True))
        return ops

    def _edge_data(self, rng, n, i):
        """Boundary (i = 0, 1) or exterior (i = 2, 3) data of length n."""
        cls = self.prog.schur.Classification
        if i == 0:
            # s_a(u z) with dyadic a: every coefficient and every step of
            # the recursion is exact, so the tail really is zero.
            a = complex((0.5, -0.5, 0.5j, -0.25, 0.25j)[int(rng.integers(5))])
            u = (1, -1, 1j, -1j)[int(rng.integers(4))]
            data = (a,) + tuple((1 - abs(a) ** 2) * (-a.conjugate()) ** (k - 1) * u**k for k in range(1, n))
            return data, cls.BOUNDARY, [a, complex(u)] + [0j] * (n - 2)
        if i == 1:
            u = complex((1, -1, 1j, -1j)[int(rng.integers(4))])
            return (u,) + (0j,) * (n - 1), cls.BOUNDARY, [u] + [0j] * (n - 1)
        if i == 2:
            k = int(rng.integers(0, 4))
            gamma = [_disk(rng, 0.0, 0.3) for _ in range(k)] + [_disk(rng, 1.05, 1.5)]
            head = tuple(checks.data_from_schur([gamma], k + 1, radius=0.25)[0])
            return head + tuple(_disk(rng, 0.0, 0.2) for _ in range(n - k - 1)), cls.EXTERIOR, gamma
        # Unimodular c0 followed by a nonzero tail.
        data = (_unit(rng),) + tuple(_disk(rng, 0.01, 0.2) for _ in range(n - 1))
        return data, cls.EXTERIOR, [data[0]]

    def _classify(self, data, want, prefix):
        prog = self.prog
        schur = prog.schur
        cls = schur.Classification
        data = tuple(complex(v) for v in data)

        def run():
            return schur.schur_parameters(data), schur.toeplitz_membership(data)

        def check(out):
            sp, toeplitz = out
            if sp.classification is not want:
                return f"recursion says {sp.classification.value}, expected {want.value}"
            got = [g for g in sp.gamma[: len(prefix)]]
            if any(g is schur.INF for g in got):
                return "unexpected INF in the checked prefix"
            err = max(abs(g - p) for g, p in zip(got, prefix))
            if err > 1e-9:
                return f"Schur parameters off by {err:.2e}"
            norm = checks.toeplitz_norm(data)
            if abs(norm - 1) > 1e-6:
                expect = cls.INTERIOR if norm < 1 else cls.EXTERIOR
                if toeplitz is not expect:
                    return f"toeplitz_membership says {toeplitz.value}, SVD norm {norm:.9f}"
            return None

        def corrupt(out):
            sp, toeplitz = out
            flipped = cls.EXTERIOR if sp.classification is not cls.EXTERIOR else cls.INTERIOR
            return schur.SchurParameters(sp.gamma, flipped, sp.boundary_index), toeplitz

        return Op("classify", f"n{len(data)}", 1, run, check, corrupt)

    def _extremal_inputs(self, rng, kind, params, levels):
        """Domain, gamma and eps of a tower with ``levels`` levels under the leading zero."""
        gamma = tuple(_disk(rng, 0.05, 0.6) for _ in range(levels - 1))
        return self.prog.domain(kind, params), gamma, _disk(rng, 0.0, 1.0)

    def _extremal_check(self, kind, params, gamma, eps, order):
        var = self.prog.variability

        def check(series):
            co = series.coeffs
            if len(co) != order + 1 or abs(co[0]) > 1e-12 or abs(co[1] - 1) > 1e-12:
                return "extremal series does not start 0, 1"
            pair = var.gamma_from_a2a3(co[2], co[3], self.prog.domain(kind, params))
            want2 = gamma[1] if len(gamma) > 1 else eps
            err = max(abs(pair.gamma1 - gamma[0]), abs(pair.gamma2 - want2))
            if err > 1e-8:
                return f"a2/a3 roundtrip off by {err:.2e}"
            return None

        return check

    def _extremal(self, rng, kind, params, order, levels):
        dom, gamma, eps = self._extremal_inputs(rng, kind, params, levels)
        var = self.prog.variability

        def corrupt(series):
            co = list(series.coeffs)
            co[2] += 1e-3
            return type(series)(tuple(co))

        return Op(
            "extremal", f"o{order}", 1,
            lambda: var.extremal_coefficients(dom, gamma, eps, order),
            self._extremal_check(kind, params, gamma, eps, order), corrupt,
        )

    def _cli_schur(self, data, cold):
        prog = self.prog
        data = tuple(complex(v) for v in data)
        argv = ["schur", "--data=" + _cli_list(data)]

        def expected():
            sp = prog.schur.schur_parameters(data)
            gamma = ["inf" if g is prog.schur.INF else [g.real, g.imag] for g in sp.gamma]
            return {"gamma": gamma, "classification": sp.classification.value}

        if cold:
            run = lambda: _launch(prog.src_dir, argv)  # noqa: E731
            kind = "cli_cold"
        else:
            run = lambda: _in_process(prog.cli.run, argv)  # noqa: E731
            kind = "cli_run"
        return Op(kind, "schur", 1, run, _cli_check(expected), _cli_corrupt)

    def _cli_extremal(self, rng, kind, params, order, levels):
        prog = self.prog
        dom, gamma, eps = self._extremal_inputs(rng, kind, params, levels)
        argv = [
            "extremal", "--domain=" + _spec_string(kind, params), "--gamma=" + _cli_list(gamma),
            "--eps=" + _cli_complex(eps), f"--order={order}",
        ]

        def expected():
            co = prog.variability.extremal_coefficients(dom, gamma, eps, order).coeffs
            return {"coefficients": [[c.real, c.imag] for c in co]}

        return Op(
            "cli_run", "extremal", 1, lambda: _in_process(prog.cli.run, argv),
            _cli_check(expected), _cli_corrupt,
        )

    def warm_up(self):
        super().warm_up()
        prog = self.prog
        for kind, params in CATALOG:
            prog.variability.extremal_coefficients(prog.domain(kind, params), (0.1,), 0.5, 16)
        prog.schur.toeplitz_membership((0.1, 0.2))
        _in_process(prog.cli.run, ["schur", "--data", "0.5,0.5"])


def _in_process(run, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def _launch(src_dir: str, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    proc = subprocess.run(
        [sys.executable, "-m", "schurvar", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout


def _cli_check(expected):
    def check(out):
        code, text = out
        if code != 0:
            return f"CLI exited {code}"
        try:
            got = json.loads(text)
        except json.JSONDecodeError:
            return "CLI printed no JSON"
        if got != expected():
            return "CLI JSON differs from the in-process result"
        return None

    return check


def _cli_corrupt(out):
    return 1, out[1]


WORKLOADS = {w.name: w for w in (TraceWorkload, MembershipWorkload, AlgebraWorkload)}
