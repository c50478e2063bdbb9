"""numpy, loaded on first use.

The Schur recursion behind ``schurvar schur`` is pure Python, yet
importing numpy is most of a cold launch.  Every module therefore takes
``np`` from here (``from ._lazy import np``) and never writes
``import numpy``: that statement finds the lazy module in
``sys.modules`` and reads its ``__spec__``, and on Python 3.11 any
attribute read of a lazy module, that one included, loads numpy at
once.  For the same reason no module may touch ``np`` at import time,
in a module-level constant or a default argument.

If numpy is already imported, ``np`` is that module and nothing is
deferred, so a caller that imports numpy first runs the kernel on the
plain module.  Otherwise ``np`` is registered in ``sys.modules`` as a
``LazyLoader`` module (the recipe of the ``importlib`` documentation)
whose first attribute read executes numpy's ``__init__``; from then on
it is an ordinary module object.  A missing numpy still fails at
``import schurvar``, with ``ModuleNotFoundError``, not at first use.

On Python 3.11 the first attribute read of a lazy module is not
thread-safe (fixed in 3.12): threads that may race to it should touch
``np`` once, or import numpy, before they start.
"""

import importlib.util
import sys


def _numpy():
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
