"""The package namespace re-exports each module's public names once."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert schurvar.__all__ == list(owners)
    for public, module in owners.items():
        assert getattr(schurvar, public) is getattr(module, public), public


def _fresh(probe):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_binds_every_public_name():
    probe = (
        "import importlib\n"
        "from schurvar import *\n"
        f"for name in {MODULES!r}:\n"
        "    module = importlib.import_module('schurvar.' + name)\n"
        "    for public in module.__all__:\n"
        "        assert globals()[public] is getattr(module, public), public\n"
        "print('ok')\n"
    )
    assert _fresh(probe) == "ok\n"


@pytest.mark.parametrize("name", ["no_such_name", "cli"])
def test_unknown_names_import_no_kernel(name):
    # The import system probes the package with hasattr for `from schurvar import cli`.
    probe = (
        "import sys, schurvar\n"
        f"print(hasattr(schurvar, {name!r}))\n"
        f"print(set(schurvar.__all__) | set({MODULES!r}) <= set(dir(schurvar)))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('schurvar')))\n"
    )
    assert _fresh(probe) == "False\nTrue\nschurvar\n"
