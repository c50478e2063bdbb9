"""tools/library_dump.py: its calls reach every public function of the
region, variability and oracle modules, and each writes its outcome
exactly."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("library_dump", ROOT / "tools" / "library_dump.py")
dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump)


def _names(c):
    yield c.name
    for a in (*c.args, *c.kw.values()):
        if isinstance(a, dump.Call):
            yield from _names(a)


def test_cases_call_every_public_function():
    called = {name for c in dump.CASES for name in _names(c)}
    for module in ("regions", "variability", "oracle"):
        mod = importlib.import_module(f"schurvar.{module}")
        public = {name for name in mod.__all__ if inspect.isfunction(getattr(mod, name))}
        assert public and public <= called, sorted(public - called)


def test_cases_are_many_and_labelled_once():
    labels = [dump.label(c) for c in dump.CASES]
    assert len(labels) >= 1500
    assert len(set(labels)) == len(labels)


def test_outcomes_are_exact():
    # Signed zeros differ; a failure carries its type, message and, for a
    # quadrature failure, its estimate, bound and columns.
    assert dump.exact(0.0) != dump.exact(-0.0)
    assert dump.exact(complex(0.0, -0.0)) != dump.exact(0j)
    assert dump.exact(np.array([0.0])) != dump.exact(np.array([-0.0]))
    rejected = dump.call("q_point", dump.schurvar.HalfPlane(), (0, 0.3), -2, 0.5, 1)
    assert dump.outcome(rejected) == "raise ValueError: weight exponent must satisfy j >= -1"
    failing = dump.call("QuadratureConfig", 1e-300, 1e-300)
    text = dump.outcome(dump.call("q_point", dump.schurvar.HalfPlane(), (0, 0.3), 0, 0.5, 1, failing))
    assert text.startswith("raise QuadratureError: 64 panels") and " | ndarray[complex128](1,):" in text
