"""The package namespace re-exports each module's public names once."""

import importlib

import schurvar

MODULES = ("series", "quadrature", "schur", "domains", "regions", "variability", "oracle")


def test_package_all_is_the_union_of_the_module_lists():
    assert len(schurvar.__all__) == len(set(schurvar.__all__))
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"schurvar.{name}")
        for public in module.__all__:
            assert public not in owners, f"{public} is exported by {owners[public]} and {name}"
            owners[public] = module
    assert set(schurvar.__all__) == set(owners)
    for public, module in owners.items():
        assert getattr(schurvar, public) is getattr(module, public), public
