"""The benchmark's lookup sites stay importable.

``bench/tracing.py`` wraps each library function at every
``(module, name)`` where a caller looks it up.  A name dropped from one
of those modules breaks only a traced benchmark run (``--trace 1``), so
this checks every site against the modules themselves.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

from schurvar import cli, domains, oracle, quadrature, regions, schur, series, variability

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_bench_lookup_site_is_a_module_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    prog = SimpleNamespace(
        cli=cli,
        domains=domains,
        oracle=oracle,
        quadrature=quadrature,
        regions=regions,
        schur=schur,
        series=series,
        variability=variability,
    )
    sites = tracing._lookup_sites(prog)
    assert sites
    missing = [
        f"{module.__name__}.{name}"
        for places in sites.values()
        for module, name in places
        if name not in module.__dict__
    ]
    assert missing == []
