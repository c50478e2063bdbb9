"""Exact variability regions for analytic functions with prescribed
Caratheodory data.

The pipeline: the Schur algorithm classifies the data (interior /
boundary / exterior of the coefficient body); interior data gets a
one-parameter family of extremal Moebius towers whose weighted contour
integrals sweep the exact region; Gauss quadrature on panels planned
from a Schwarz-Pick bound traces the boundary; closed-form and
Monte-Carlo oracles cross-check the result from independent routes.

The public names of the seven library modules are package attributes,
but a module is imported only when it or one of its names is first
read (PEP 562), so a cold ``schurvar schur`` launch compiles the Schur
recursion alone, and no numpy: ``schur`` and ``series`` import it only
inside the functions that use it.  ``_EXPORTS`` is the one list of
public names, so a name's module is found without importing the others;
each module reads its ``__all__`` from it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "series": ("ComplexSeries", "series_mul", "series_reciprocal", "series_compose", "series_exp"),
    "quadrature": ("QuadratureConfig", "QuadratureError", "integrate_segment"),
    "schur": ("INF", "Classification", "SchurParameters", "schur_parameters", "toeplitz_membership",
              "mobius_eval", "BlaschkeTower", "tower_eval", "tower_taylor"),
    "domains": ("DomainSpec", "DomainMap", "HalfPlane", "Sector", "Janowski", "ConicSection", "make_domain"),
    "regions": ("RegionRequest", "RegionPolygon", "RegionResult", "q_point", "k_primitive", "single_point_value",
                "region_compute", "polygon_convexity", "polygon_signed_distance", "hausdorff"),
    "variability": ("FixedA2", "FixedA2A3", "VariabilityQuery", "GammaPair", "gamma_from_a2", "gamma_from_a2a3",
                    "cv_region", "extremal_f_eval", "extremal_coefficients"),
    "oracle": ("gronwall_curve_point", "gronwall_curve", "h_transform", "sample_admissible", "MembershipReport",
               "membership_trial"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
