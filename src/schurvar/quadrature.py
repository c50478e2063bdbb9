"""Adaptive contour quadrature along straight segments from the origin.

Integrals here are always of the form  int_0^{z_end} f(zeta) d(zeta)
taken along the straight segment, parametrized as zeta(t) = t*z_end for
t in [0, 1].  Each panel is a Gauss-Kronrod (G7, K15) pair; the panel
error estimate is |K15 - G7| and panels failing their share of the
budget are bisected.  All nodes are interior, so integrands with a
removable singularity at the origin (the 1/zeta weight against a
vanishing numerator) are evaluated safely without special-casing.

The integrand is called once per panel on its 15 nodes.  A vector
integrand, one column per integral, shares the panels of all columns
(as in QUADPACK's vector variants): a panel is accepted only when every
column meets its own share of the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureConfig", "QuadratureError", "integrate_segment"]

# 15-point Kronrod abscissae (positive half, descending; last entry is 0)
# and weights, with the embedded 7-point Gauss weights.  Standard values.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789847,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478541,
    0.2044329400752989,
    0.20948214108472783,
)
# Gauss weights for the odd-indexed abscissae above (x_1, x_3, x_5) and 0.
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.41795918367346936,
)
# The whole rule on [-1, 1]: nodes, K15 weights and K15 - G7 weights
# (the Gauss nodes sit at the odd positions).
_X = np.concatenate([np.negative(_XGK), _XGK[-2::-1]])
_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_WD = _WK.copy()
_WD[1::2] -= _WG + _WG[-2::-1]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and recursion limit for the adaptive scheme."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 30

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureError(RuntimeError):
    """Raised when bisection hits max_depth without meeting its budget,
    or when the integrand returns a non-finite value.

    Carries the best available estimate and its error bound (one per
    column for vector integrands) so callers can decide whether the
    partial answer is still usable, and the indices of the failing
    columns.
    """

    def __init__(
        self,
        message: str,
        estimate: complex | np.ndarray,
        error_bound: float | np.ndarray,
        columns: tuple[int, ...] = (),
    ):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.columns = columns


def integrate_segment(
    integrand: Callable[[np.ndarray], np.ndarray],
    z_end: complex,
    cfg: QuadratureConfig | None = None,
) -> complex | np.ndarray:
    """Integrate along the segment from 0 to z_end.

    For every column the estimated error of the result is at most
    max(abs_tol, rel_tol * |result|); the relative scale is taken from
    a first whole-segment panel.  The integrand must be analytic on a
    neighborhood of the segment (a removable singularity at 0 is fine:
    no node touches an endpoint).

    Parameters
    ----------
    integrand : callable
        Called once per panel with the panel's 15 nodes, a complex array
        of shape (15,).  Returning shape (15,) gives a complex result;
        shape (15, m) gives the (m,) array of m integrals.
    z_end : complex
        Endpoint; 0 gives the empty contour and an exact 0 result
        without calling the integrand.
    cfg : QuadratureConfig, optional

    Raises
    ------
    QuadratureError
        If some panel still fails its budget at max_depth (the
        exception carries each column's estimate and error bound), or
        if the integrand returns a non-finite value.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG
    z_end = complex(z_end)
    if z_end == 0:
        return 0j

    def panel(a: float, b: float):
        """One G7/K15 panel on [a, b] in t: (K15 values, |K15 - G7|)."""
        h = 0.5 * (b - a)
        zeta = (0.5 * (a + b) + h * _X) * z_end
        f = np.asarray(integrand(zeta))
        finite = np.isfinite(f).all(axis=0)
        if not finite.all():
            cols = tuple(np.flatnonzero(~finite).tolist())
            raise QuadratureError(
                f"non-finite integrand value on [0, {z_end}] in column(s) {list(cols)}",
                complex("nan"),
                np.inf,
                cols,
            )
        return h * (_WK @ f), h * np.abs(_WD @ f)

    first, err0 = panel(0.0, 1.0)
    scale = abs(z_end)
    # Error budget in t-space per column, shared by panels in
    # proportion to their length.
    tol_t = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(first) * scale) / scale

    total = 0j
    bound = 0.0
    failed = np.False_
    stack = [(0.0, 1.0, 0, first, err0)]
    while stack:
        a, b, depth, val, err = stack.pop()
        short = err > tol_t * (b - a)
        if depth >= cfg.max_depth or not short.any():
            total = total + val
            bound = bound + err
            failed = failed | short
        else:
            m = 0.5 * (a + b)
            stack.append((m, b, depth + 1, *panel(m, b)))
            stack.append((a, m, depth + 1, *panel(a, m)))
    if np.ndim(total) == 0:
        total, bound = complex(total), float(bound)
    if failed.any():
        cols = tuple(np.flatnonzero(failed).tolist())
        raise QuadratureError(
            f"max depth {cfg.max_depth} exceeded without convergence "
            f"on [0, {z_end}] in column(s) {list(cols)}",
            z_end * total,
            scale * bound,
            cols,
        )
    return z_end * total
