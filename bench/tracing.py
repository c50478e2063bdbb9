"""The traced run: spans, exact counts and replayed leaf timings.

Three passes over the same fixed list of requests:

1. untraced: no wrappers; its outputs are gated and its wall time is
   the baseline for the overhead figures;
2. spans: wrappers on the coarse public functions record one span per
   call (name, tag, start, end, parent, request id) in memory;
3. counts: wrappers on the hot leaves (the quadrature integrand,
   tower_eval, DomainMap.eval, mobius_eval, the admissible closure and
   the series products) only count calls and keep every k-th argument
   tuple.

A Python wrapper costs about as much as a leaf call, so leaf timings
come from replaying the kept arguments through the unwrapped public
function in a timed loop after pass 3.  Spans are never recorded in the
counting pass, so span durations do not include counting overhead.

Wrappers are installed where each name is looked up at call time:
``regions``, ``oracle``, ``variability`` and ``cli`` import the library
functions by name, ``tower_eval`` finds ``mobius_eval`` in ``schur``,
and ``DomainMap.eval`` is a class attribute.  Every wrapper is removed
again before the pass returns.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import CATALOG, radius_tag

SAMPLE_EVERY = 7  # keep every 7th argument tuple of a hot leaf ...
SAMPLE_CAP = 3000  # ... up to this many per leaf
REPLAY_REPS = 7

DOMAIN_KINDS = {"HalfPlane": "halfplane", "Sector": "sector", "Janowski": "janowski", "ConicSection": "kucv"}


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _lookup_sites(prog):
    """Public function -> the (module, name) places where callers find it."""
    r, v, o, c, s, q, se = (
        prog.regions, prog.variability, prog.oracle, prog.cli, prog.schur, prog.quadrature, prog.series,
    )
    return {
        "region_compute": [(r, "region_compute"), (v, "region_compute"), (c, "region_compute")],
        "cv_region": [(v, "cv_region")],
        "q_point": [(r, "q_point"), (o, "q_point"), (v, "q_point"), (c, "q_point")],
        "k_primitive": [(r, "k_primitive"), (v, "k_primitive")],
        "integrate_segment": [(q, "integrate_segment"), (r, "integrate_segment"), (o, "integrate_segment"),
                              (v, "integrate_segment")],
        "membership_trial": [(o, "membership_trial"), (c, "membership_trial")],
        "sample_admissible": [(o, "sample_admissible")],
        "polygon_signed_distance": [(r, "polygon_signed_distance"), (o, "polygon_signed_distance")],
        "extremal_coefficients": [(v, "extremal_coefficients"), (c, "extremal_coefficients")],
        "tower_taylor": [(s, "tower_taylor"), (v, "tower_taylor")],
        "series_compose": [(se, "series_compose"), (s, "series_compose"), (v, "series_compose")],
        "series_mul": [(se, "series_mul"), (s, "series_mul")],
        "schur_parameters": [(s, "schur_parameters"), (r, "schur_parameters"), (c, "schur_parameters")],
        "toeplitz_membership": [(s, "toeplitz_membership")],
        "cli.run": [(c, "run")],
        "tower_eval": [(s, "tower_eval"), (r, "tower_eval")],
        "mobius_eval": [(s, "mobius_eval"), (o, "mobius_eval")],
    }


def _install(patches, sites, name, make_wrapper):
    """Wrap the original once and put the wrapper at every lookup site."""
    module, attr = sites[name][0]
    wrapper = make_wrapper(getattr(module, attr))
    for module, attr in sites[name]:
        patches.set(module, attr, wrapper)


def _constraint_tag(args, kwargs, out):
    tag = {"NoneType": "none", "FixedA2": "a2", "FixedA2A3": "a2a3"}[type(args[0].constraint).__name__]
    return tag if out.is_region else f"{tag}-{out.kind}"


# Tag of a span from the call's arguments and result.
SPAN_TAGS = {
    "region_compute": lambda a, k, out: radius_tag(abs(a[0].z0)),
    "cv_region": _constraint_tag,
    "q_point": lambda a, k, out: radius_tag(abs(complex(a[3]))),
    "k_primitive": lambda a, k, out: radius_tag(abs(complex(a[1]))),
    "integrate_segment": lambda a, k, out: radius_tag(abs(complex(a[1]))),
    "membership_trial": lambda a, k, out: radius_tag(abs(complex(a[3]))),
    "extremal_coefficients": lambda a, k, out: f"o{a[3]}",
    "tower_taylor": lambda a, k, out: f"o{a[1] + 1}",
    "series_compose": lambda a, k, out: f"o{min(len(a[0]), len(a[1]))}",
    "schur_parameters": lambda a, k, out: f"n{len(a[0])}",
    "toeplitz_membership": lambda a, k, out: f"n{len(a[0])}",
    "cli.run": lambda a, k, out: a[0][0],
    "sample_admissible": None,
    "polygon_signed_distance": None,
}


class SpanRecorder:
    """Spans of one pass: [name, tag, start_ns, end_ns, parent, request]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1

    def wrapper(self, name, tag):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                rec = [name, None, clock(), 0, stack[-1] if stack else -1, self.request]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[3] = clock()
                    stack.pop()
                if tag is not None:
                    rec[1] = tag(args, kwargs, out)
                return out

            return traced

        return make

    def open_request(self, op_index: int, kind: str) -> list:
        self.request = op_index
        rec = ["request", kind, time.perf_counter_ns(), 0, -1, op_index]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_request(self, rec: list) -> None:
        rec[3] = time.perf_counter_ns()
        self.stack.pop()


class LeafCounter:
    """Call counts and sampled arguments of the hot leaves."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)

    def _keep(self, key, n, item):
        if n % SAMPLE_EVERY == 0 and len(self.samples[key]) < SAMPLE_CAP:
            self.samples[key].append(item)

    def plain(self, key):
        counts = self.counts

        def make(fn):
            def counted(*args):
                counts[key] += 1
                self._keep(key, counts[key], args)
                return fn(*args)

            return counted

        return make

    def domain_eval(self, fn):
        counts = self.counts

        def counted(dom, z):
            key = "domains.eval." + DOMAIN_KINDS[type(dom).__name__]
            counts["domains.eval"] += 1
            counts[key] += 1
            self._keep(key, counts[key], (dom, z))
            return fn(dom, z)

        return counted

    def integrate_segment(self, fn, quadrature_error):
        counts = self.counts

        def counted(integrand, z_end, cfg=None):
            bucket = radius_tag(abs(complex(z_end)))
            counts["quadrature.calls"] += 1
            counts["quadrature.calls." + bucket] += 1
            self._keep("integrate_segment", counts["quadrature.calls"], (integrand, z_end, cfg))
            evals = 0

            def f(zeta):
                nonlocal evals
                evals += 1
                return integrand(zeta)

            try:
                return fn(f, z_end, cfg)
            except quadrature_error:
                counts["quadrature.errors"] += 1
                raise
            finally:
                counts["quadrature.evals." + bucket] += evals
                # The first whole-segment panel is evaluated again when it fails.
                if evals > 15:
                    counts["quadrature.repeated_evals"] += 15
                counts["quadrature.evals"] += evals

        return counted

    def sample_admissible(self, fn):
        counts = self.counts

        def counted(sampler, domain):
            g = fn(sampler, domain)

            def fn_counted(z):
                counts["oracle.admissible_eval"] += 1
                self._keep("oracle.admissible_eval", counts["oracle.admissible_eval"], (g, z))
                return g(z)

            return fn_counted

        return counted


def _run_ops(ops, spans=None):
    """Run every op once; returns (outputs, errors, total ns of the calls)."""
    outs, errors, total = [], [], 0
    for i, op in enumerate(ops):
        rec = spans.open_request(i, op.kind) if spans is not None else None
        t0 = time.perf_counter_ns()
        try:
            out, err = op.run(), None
        except Exception as exc:  # noqa: BLE001 - recorded, compared below
            out, err = None, exc
        total += time.perf_counter_ns() - t0
        if rec is not None:
            spans.close_request(rec)
        outs.append(out)
        errors.append(err)
    return outs, errors, total


def traced_run(prog, workload, ops, failures):
    """Run the three passes; returns (metrics, failed op count, dump)."""
    sites = _lookup_sites(prog)

    outs, errors, base_ns = _run_ops(ops)
    failed = 0
    for op, out, err in zip(ops, outs, errors):
        if err is not None:
            if not isinstance(err, failures):
                raise err
            failed += 1
        elif op.check(out) is not None:
            failed += 1

    recorder = SpanRecorder()
    patches = Patches()
    try:
        for name, tag in SPAN_TAGS.items():
            _install(patches, sites, name, recorder.wrapper(name, tag))
        span_outs, _, span_ns = _run_ops(ops, recorder)
    finally:
        patches.restore()

    counter = LeafCounter()
    try:
        _install(patches, sites, "integrate_segment",
                 lambda fn: counter.integrate_segment(fn, prog.quadrature.QuadratureError))
        _install(patches, sites, "tower_eval", counter.plain("schur.tower_eval"))
        _install(patches, sites, "mobius_eval", counter.plain("schur.mobius_eval"))
        _install(patches, sites, "series_compose", counter.plain("series.compose"))
        _install(patches, sites, "series_mul", counter.plain("series.mul"))
        _install(patches, sites, "sample_admissible", counter.sample_admissible)
        patches.set(prog.domains.DomainMap, "eval", counter.domain_eval(prog.domains.DomainMap.eval))
        count_outs, _, count_ns = _run_ops(ops)
    finally:
        patches.restore()

    # Wrappers must not change a single bit of any answer.
    for a, b, c in zip(outs, span_outs, count_outs):
        if not a == b == c:
            failed += 1

    metrics = {}
    metrics.update(_span_metrics(recorder.spans))
    metrics.update(_count_metrics(counter.counts))
    metrics.update(_replay_metrics(prog, counter.samples))
    metrics["domains.taylor.ms.kucv"] = (_kucv_taylor_ms(prog, workload), "ms")
    metrics["cli.import_ms"] = (_cli_import_ms(prog), "ms")
    metrics["tracing.span_overhead_pct"] = (100.0 * (span_ns - base_ns) / base_ns, "%")
    metrics["tracing.count_overhead_pct"] = (100.0 * (count_ns - base_ns) / base_ns, "%")
    dump = {
        "span_fields": ["name", "tag", "start_ns", "end_ns", "parent", "request"],
        "spans": recorder.spans,
        "counters": dict(sorted(counter.counts.items())),
        "pass_ns": {"untraced": base_ns, "spans": span_ns, "counts": count_ns},
    }
    return metrics, failed, dump


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _span_metrics(spans):
    by = defaultdict(list)  # (name, tag or "*") -> durations in ns
    children = defaultdict(list)  # parent index -> child indices
    for i, (name, tag, t0, t1, parent, _) in enumerate(spans):
        by[(name, tag)].append(t1 - t0)
        by[(name, "*")].append(t1 - t0)
        if parent >= 0:
            children[parent].append(i)

    def med(name, tag, scale):
        return _median(by.get((name, tag), ())) / scale

    def child_share(name, child):
        total = inner = 0
        for i, rec in enumerate(spans):
            if rec[0] == name:
                total += rec[3] - rec[2]
                inner += sum(spans[c][3] - spans[c][2] for c in children[i] if child in (None, spans[c][0]))
        return inner / total if total else 0.0

    m = {}
    for r in ("r05", "r08", "r095"):
        m[f"regions.q_point.us.{r}"] = (med("q_point", r, 1e3), "us")
    traced = by.get(("region_compute", "*"))
    m["regions.region_compute.self_share"] = (1.0 - child_share("region_compute", None) if traced else 0.0, "share")
    m["regions.k_primitive.us"] = (med("k_primitive", "*", 1e3), "us")
    for c in ("none", "a2", "a2a3"):
        m[f"variability.cv_region.ms.{c}"] = (med("cv_region", c, 1e6), "ms")
    m["oracle.sample_admissible.us"] = (med("sample_admissible", "*", 1e3), "us")
    m["regions.signed_distance.us"] = (med("polygon_signed_distance", "*", 1e3), "us")
    m["oracle.membership.trace_share"] = (child_share("membership_trial", "q_point"), "share")
    for n in ("n9", "n33"):
        m[f"schur.schur_parameters.us.{n}"] = (med("schur_parameters", n, 1e3), "us")
        m[f"schur.toeplitz_membership.us.{n}"] = (med("toeplitz_membership", n, 1e3), "us")
    m["series.compose.ms.o64"] = (med("series_compose", "o64", 1e6), "ms")
    for o in ("o16", "o64"):
        m[f"schur.tower_taylor.ms.{o}"] = (med("tower_taylor", o, 1e6), "ms")
    m["cli.run.us.schur"] = (med("cli.run", "schur", 1e3), "us")
    m["cli.run.ms.extremal"] = (med("cli.run", "extremal", 1e6), "ms")
    return m


def _count_metrics(counts):
    m = {
        "quadrature.calls": (counts["quadrature.calls"], "count"),
        "quadrature.errors": (counts["quadrature.errors"], "count"),
    }
    for r in ("r05", "r08", "r095"):
        calls = counts["quadrature.calls." + r]
        m[f"quadrature.evals_per_call.{r}"] = (counts["quadrature.evals." + r] / calls if calls else 0.0, "count")
    evals = counts["quadrature.evals"]
    m["quadrature.repeated_eval_share"] = (counts["quadrature.repeated_evals"] / evals if evals else 0.0, "share")
    for key in ("schur.tower_eval", "schur.mobius_eval", "domains.eval", "series.compose", "series.mul"):
        m[key + ".calls"] = (counts[key], "count")
    return m


def _time_loop(fn, items) -> float:
    """Median over REPLAY_REPS of the ns per call of fn(*item) over items."""
    if not items:
        return 0.0
    reps = []
    for _ in range(REPLAY_REPS):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(*item)
        reps.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(reps)


def _replay_metrics(prog, samples):
    m = {
        "schur.tower_eval.ns": (_time_loop(prog.schur.tower_eval, samples["schur.tower_eval"]), "ns"),
        "schur.mobius_eval.ns": (_time_loop(prog.schur.mobius_eval, samples["schur.mobius_eval"]), "ns"),
        "oracle.admissible_eval.ns": (
            _time_loop(lambda g, z: g(z), samples["oracle.admissible_eval"]), "ns"),
    }
    for kind in ("halfplane", "sector", "janowski", "kucv"):
        items = samples["domains.eval." + kind]
        m[f"domains.eval.ns.{kind}"] = (_time_loop(prog.domains.DomainMap.eval, items), "ns")
    m["quadrature.integrand_share"] = (_integrand_share(prog, samples["integrate_segment"]), "share")
    return m


def _integrand_share(prog, calls) -> float:
    """Share of integrate_segment time spent inside its integrand."""
    if not calls:
        return 0.0
    integrate = prog.quadrature.integrate_segment
    nodes = []
    for integrand, z_end, cfg in calls:
        seen = []

        def record(zeta, integrand=integrand, seen=seen):
            seen.append(zeta)
            return integrand(zeta)

        integrate(record, z_end, cfg)
        nodes.append((integrand, seen))

    def integrand_only():
        for integrand, seen in nodes:
            for zeta in seen:
                integrand(zeta)

    def whole():
        for integrand, z_end, cfg in calls:
            integrate(integrand, z_end, cfg)

    shares = []
    for _ in range(REPLAY_REPS):
        t0 = time.perf_counter_ns()
        integrand_only()
        t1 = time.perf_counter_ns()
        whole()
        t2 = time.perf_counter_ns()
        shares.append((t1 - t0) / (t2 - t1))
    return statistics.median(shares)


def _kucv_taylor_ms(prog, workload) -> float:
    """Lazy ConicSection Taylor extraction that the workload's set-up pays."""
    if not workload.kucv_taylor_orders:
        return 0.0
    reps = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for kind, params in CATALOG:
            if kind == "kucv":
                dom = prog.domains.ConicSection(params["k"])
                for order in workload.kucv_taylor_orders:
                    dom.taylor(order)
        reps.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(reps)


def _cli_import_ms(prog) -> float:
    """Time to import schurvar.cli in a fresh interpreter, median of 3."""
    code = (
        "import time; t = time.perf_counter(); import schurvar.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=prog.src_dir)
    reps = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=60, check=True)
        reps.append(float(proc.stdout) * 1e3)
    return statistics.median(reps)
