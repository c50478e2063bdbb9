"""The benchmark's lookup sites stay importable, and are the only reason
for an unused import.

``bench/tracing.py`` wraps each library function at every
``(module, name)`` where a caller looks it up.  A name dropped from one
of those modules breaks only a traced benchmark run (``--trace 1``), so
this checks every site against the modules themselves.  Conversely a
module keeps a name it imports but never uses only as such a site: once
the benchmark stops looking one up, its re-import must go too.
"""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

from schurvar import cli, domains, oracle, quadrature, regions, schur, series, variability

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = BENCH.parent / "src" / "schurvar"


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


def _unused_imports(path):
    """Names a module binds by an import (not from __future__) and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_unused_import_is_a_bench_lookup_site(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    prog = SimpleNamespace(
        cli=cli, domains=domains, oracle=oracle, quadrature=quadrature, regions=regions,
        schur=schur, series=series, variability=variability,
    )
    sites = {
        (module.__name__.rsplit(".", 1)[-1], name)
        for places in tracing._lookup_sites(prog).values()
        for module, name in places
    }
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert modules
    unexplained = [
        f"{path.stem}.{name}"
        for path in modules
        for name in sorted(_unused_imports(path))
        if (path.stem, name) not in sites
    ]
    assert unexplained == []
