"""One probe of the region kernel, shared by the test modules.

``map_calls`` records the kernel's map evaluations and ``plans`` its
quadrature plans.  Both patch classes and modules, never the shared map
instances of ``mp_maps.CATALOG``: undoing a patch of an instance
attribute leaves the bound method it read on the instance, and a later
patch of the class never sees that instance's calls.  An autouse check
fails any test that leaves a catalog map with its own ``eval`` or
``_eval``.
"""

import numpy as np
import pytest

from schurvar import regions
from schurvar.domains import ConicSection, DomainMap, Janowski, Sector

from mp_maps import CATALOG


@pytest.fixture
def map_calls(monkeypatch):
    """Every call of ``DomainMap.eval`` and of the ``_eval`` of Janowski
    (the half-planes included), Sector and ConicSection, in order, as
    (method name, shape of z, max |z|)."""
    calls = []

    def spy(name, method):
        def record(self, z):
            calls.append((name, np.shape(z), float(np.abs(z).max(initial=0))))
            return method(self, z)

        return record

    monkeypatch.setattr(DomainMap, "eval", spy("eval", DomainMap.eval))
    for cls in (Janowski, Sector, ConicSection):
        monkeypatch.setattr(cls, "_eval", spy("_eval", cls._eval))
    return calls


@pytest.fixture
def plans(monkeypatch):
    """Every plan that the region kernel runs to the end, in order, as
    (nodes per panel, the plan's bound)."""
    out = []
    plan = regions._gauss_segment

    def record(integrand, *args):
        nodes = []
        total, bound = plan(lambda zeta: (nodes.append(len(zeta)), integrand(zeta))[1], *args)
        out.append((nodes, bound))
        return total, bound

    monkeypatch.setattr(regions, "_gauss_segment", record)
    return out


@pytest.fixture(autouse=True)
def catalog_maps_keep_their_class_methods():
    yield
    left = [dom.spec_string() for dom, *_ in CATALOG if {"eval", "_eval"} & vars(dom).keys()]
    assert not left, f"a test left its own eval or _eval on the catalog maps {left}"
