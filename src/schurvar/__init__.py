"""Exact variability regions for analytic functions with prescribed
Caratheodory data.

The pipeline: the Schur algorithm classifies the data (interior /
boundary / exterior of the coefficient body); interior data gets a
one-parameter family of extremal Moebius towers whose weighted contour
integrals sweep the exact region; adaptive Gauss-Kronrod quadrature
traces the boundary; closed-form and Monte-Carlo oracles cross-check
the result from independent routes.
"""

from .series import (
    ComplexSeries,
    series_compose,
    series_exp,
    series_mul,
    series_reciprocal,
)
from .quadrature import QuadratureConfig, QuadratureError, integrate_segment
from .schur import (
    INF,
    BlaschkeTower,
    Classification,
    SchurParameters,
    mobius_eval,
    mobius_series,
    schur_parameters,
    toeplitz_membership,
    tower_eval,
    tower_taylor,
)
from .domains import (
    ConicSection,
    DomainMap,
    DomainSpec,
    HalfPlane,
    Janowski,
    Sector,
    make_domain,
)
from .regions import (
    RegionPolygon,
    RegionRequest,
    RegionResult,
    hausdorff,
    k_primitive,
    polygon_convexity,
    polygon_signed_distance,
    q_point,
    region_compute,
    single_point_value,
    theta_grid,
)
from .variability import (
    FixedA2,
    FixedA2A3,
    GammaPair,
    VariabilityQuery,
    cv_region,
    extremal_coefficients,
    extremal_f_eval,
    gamma_from_a2,
    gamma_from_a2a3,
)
from .oracle import (
    AdmissibleSampler,
    MembershipReport,
    gronwall_curve,
    gronwall_curve_point,
    h_transform,
    membership_trial,
    sample_admissible,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexSeries",
    "series_compose",
    "series_exp",
    "series_mul",
    "series_reciprocal",
    "QuadratureConfig",
    "QuadratureError",
    "integrate_segment",
    "INF",
    "BlaschkeTower",
    "Classification",
    "SchurParameters",
    "mobius_eval",
    "mobius_series",
    "schur_parameters",
    "toeplitz_membership",
    "tower_eval",
    "tower_taylor",
    "ConicSection",
    "DomainMap",
    "DomainSpec",
    "HalfPlane",
    "Janowski",
    "Sector",
    "make_domain",
    "RegionPolygon",
    "RegionRequest",
    "RegionResult",
    "hausdorff",
    "k_primitive",
    "polygon_convexity",
    "polygon_signed_distance",
    "q_point",
    "region_compute",
    "single_point_value",
    "theta_grid",
    "FixedA2",
    "FixedA2A3",
    "GammaPair",
    "VariabilityQuery",
    "cv_region",
    "extremal_coefficients",
    "extremal_f_eval",
    "gamma_from_a2",
    "gamma_from_a2a3",
    "AdmissibleSampler",
    "MembershipReport",
    "gronwall_curve",
    "gronwall_curve_point",
    "h_transform",
    "membership_trial",
    "sample_admissible",
]
