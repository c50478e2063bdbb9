"""Exact variability regions for analytic functions with prescribed
Caratheodory data.

The pipeline: the Schur algorithm classifies the data (interior /
boundary / exterior of the coefficient body); interior data gets a
one-parameter family of extremal Moebius towers whose weighted contour
integrals sweep the exact region; Gauss quadrature on panels planned
from a Schwarz-Pick bound traces the boundary; closed-form and
Monte-Carlo oracles cross-check the result from independent routes.
"""

from .series import *
from .quadrature import *
from .schur import *
from .domains import *
from .regions import *
from .variability import *
from .oracle import *
from . import domains, oracle, quadrature, regions, schur, series, variability

__version__ = "0.1.0"

__all__ = [
    name
    for module in (series, quadrature, schur, domains, regions, variability, oracle)
    for name in module.__all__
]
