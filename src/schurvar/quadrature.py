"""Adaptive contour quadrature along straight segments from the origin.

Integrals here are always of the form  int_0^{z_end} f(zeta) d(zeta)
taken along the straight segment, parametrized as zeta(t) = t*z_end for
t in [0, 1] (each column of a vector integrand may have its own
endpoint, on the same panels in t).  Each panel is a Gauss-Kronrod
pair; the panel error estimate is |K - G| of that pair and panels
failing their share of the budget are bisected.  All nodes are
interior, so integrands with a removable singularity at the origin (the
1/zeta weight against a vanishing numerator) are evaluated safely
without special-casing.

The pair is chosen once per call from the budget.  Below 1e-10 (the
default 1e-12 and anything tighter) it is G15/K31: on a panel whose
integrand is analytic inside the Bernstein ellipse of parameter rho,
|K31 - G15| is about rho^-30 against rho^-14 for |K15 - G7|, so a
smooth integrand meets a tight budget with far fewer bisections.
Looser budgets such as 1e-9 are mostly met by a first K15 panel
already and keep G7/K15, the cheaper rule there.

The integrand is called once per panel on the k nodes of the rule
(k = 31 or 15).  A vector integrand returns one column per integral,
and acceptance is per column, as QUADPACK applies its local test to
each integral on its own: a column that meets its share of the budget
on a panel keeps that panel, and only the columns still short are
evaluated on the two halves.  An integrand may carry ``take(cols)``,
returning the integrand restricted to those (global) column indices,
so that refined panels compute only those columns; without it the full
integrand is evaluated and sliced.  A column's sums are bit-identical
on both routes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from ._lazy import np

__all__ = ["QuadratureConfig", "QuadratureError", "integrate_segment"]

# Each Gauss-Kronrod pair is given by its non-negative Kronrod abscissae
# (descending; the last is 0), their Kronrod weights, and the Gauss
# weights of the odd-indexed abscissae x_1, x_3, ..., 0.  Standard
# values (QUADPACK qk15 and qk31).
_XGK15 = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789847,
    0.0,
)
_WGK15 = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478541,
    0.2044329400752989,
    0.20948214108472783,
)
_WG7 = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.41795918367346936,
)
_XGK31 = (
    0.9980022986933971,
    0.9879925180204854,
    0.9677390756791391,
    0.937273392400706,
    0.8972645323440819,
    0.8482065834104272,
    0.790418501442466,
    0.7244177313601701,
    0.650996741297417,
    0.5709721726085388,
    0.4850818636402397,
    0.3941513470775634,
    0.29918000715316884,
    0.20119409399743451,
    0.1011420669187175,
    0.0,
)
_WGK31 = (
    0.005377479872923349,
    0.015007947329316122,
    0.02546084732671532,
    0.03534636079137585,
    0.04458975132476488,
    0.05348152469092809,
    0.06200956780067064,
    0.06985412131872826,
    0.07684968075772038,
    0.08308050282313302,
    0.08856444305621176,
    0.09312659817082532,
    0.09664272698362368,
    0.09917359872179196,
    0.10076984552387559,
    0.10133000701479154,
)
_WG15 = (
    0.03075324199611727,
    0.07036604748810812,
    0.10715922046717194,
    0.13957067792615432,
    0.16626920581699392,
    0.1861610000155622,
    0.19843148532711158,
    0.2025782419255613,
)


_PAIRS = {15: (_XGK15, _WGK15, _WG7), 31: (_XGK31, _WGK31, _WG15)}


@functools.cache
def _rule(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whole k-node rule (k = 15 or 31) on [-1, 1]: nodes, Kronrod
    weights and Kronrod minus Gauss weights (the Gauss nodes sit at the
    odd positions)."""
    xgk, wgk, wg = _PAIRS[k]
    x = np.concatenate([np.negative(xgk), xgk[-2::-1]])
    wk = np.concatenate([wgk, wgk[-2::-1]])
    wd = wk.copy()
    wd[1::2] -= wg + wg[-2::-1]
    return x, wk, wd


# Budgets below this use G15/K31, the others G7/K15.
_K31_BELOW = 1e-10


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
    z_end: complex | np.ndarray,
    cfg: QuadratureConfig | None = None,
) -> complex | np.ndarray:
    """Integrate along the segment from 0 to z_end (column c to z_end[c]).

    For every column the estimated error of the result is at most
    max(abs_tol, rel_tol * |result|); the relative scale is taken from
    a first whole-segment panel.  A column is accepted on the first
    panel of each branch that meets its share of that budget (or at
    max_depth); the others go on to the panel's halves.  The integrand
    must be analytic on a neighborhood of the segment (a removable
    singularity at 0 is fine: no node touches an endpoint).

    The panel rule is G15/K31 when min(abs_tol, rel_tol) < 1e-10 and
    G7/K15 otherwise; the error estimate is |K - G| of the pair in use.

    Parameters
    ----------
    integrand : callable
        Called with the panel's k nodes (k is 31 under G15/K31 and 15
        under G7/K15): shape (k,) for a scalar z_end, or (k, m) with
        column c at t z_end[c] for an array z_end.  Returning shape (k,)
        gives a complex result (one column); shape (k, m) gives the (m,)
        array of m integrals.
        An optional attribute ``take(cols)`` returns the integrand
        restricted to the global column indices ``cols`` (an integer
        array), whose values must equal the sliced full output; a panel
        refined for fewer than all columns then calls
        ``integrand.take(cols)(zeta)`` instead of evaluating every column.
    z_end : complex or (m,) array of complex
        Endpoint; 0 gives the empty contour and an exact 0 result
        without calling the integrand.  An array gives each column its
        own nonzero endpoint.
    cfg : QuadratureConfig, optional

    Raises
    ------
    ValueError
        If an array z_end holds a zero endpoint.
    QuadratureError
        If some column still fails its budget at max_depth (the
        exception carries each column's estimate and error bound), or
        if the integrand returns a non-finite value in a column still
        being refined.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG
    one_end = np.ndim(z_end) == 0
    z_end = complex(z_end) if one_end else np.asarray(z_end, dtype=complex)
    if one_end and z_end == 0:
        return 0j
    if not one_end and not z_end.all():
        raise ValueError("array endpoints must be nonzero")
    segment = f"[0, {z_end}]" if one_end else "[0, z_end[c]]"

    x, wk, wd = _rule(31 if min(cfg.abs_tol, cfg.rel_tol) < _K31_BELOW else 15)

    def nodes(a: float, b: float, cols: slice | np.ndarray) -> np.ndarray:
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        return t * z_end if one_end else t[:, None] * z_end[cols]

    def rule(a: float, b: float, cols: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
        """Kronrod values and |Kronrod - Gauss| on [a, b] from the values f
        of columns cols."""
        # A contiguous copy makes the BLAS sums of a sliced column equal
        # to those of a freshly computed one.
        f = np.ascontiguousarray(f).reshape(len(x), -1)
        finite = np.isfinite(f).all(axis=0)
        if not finite.all():
            bad = tuple(cols[~finite].tolist())
            raise QuadratureError(
                f"non-finite integrand value on {segment} in column(s) {list(bad)}",
                complex("nan"),
                np.inf,
                bad,
            )
        h = 0.5 * (b - a)
        return h * (wk @ f), h * np.abs(wd @ f)

    take = getattr(integrand, "take", None)

    def panel(a: float, b: float, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """rule on [a, b] for columns cols: every column from the integrand
        itself, fewer through its take, or else sliced from every column."""
        if len(cols) == len(tol_t):
            return rule(a, b, cols, integrand(nodes(a, b, cols)))
        if take is not None:
            return rule(a, b, cols, take(cols)(nodes(a, b, cols)))
        every = np.asarray(integrand(nodes(a, b, slice(None))))
        return rule(a, b, cols, every.reshape(len(x), -1)[:, cols])

    f = np.asarray(integrand(nodes(0.0, 1.0, slice(None))))
    scalar = f.ndim == 1
    cols = np.arange(f.size // len(x))
    first, err0 = rule(0.0, 1.0, cols, f)
    scale = abs(z_end)
    # Error budget in t-space per column, shared by panels in
    # proportion to their length.
    tol_t = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(first) * scale) / scale

    total = np.zeros(len(cols), dtype=complex)
    bound = np.zeros(len(cols))
    failed = np.zeros(len(cols), dtype=bool)
    stack = [(0.0, 1.0, 0, cols, tol_t, first, err0)]
    while stack:
        a, b, depth, cols, tol, val, err = stack.pop()
        short = err > tol * (b - a)
        if depth >= cfg.max_depth:
            failed[cols] |= short
            short[:] = False
        if short.any():
            keep = ~short
            total[cols[keep]] += val[keep]
            bound[cols[keep]] += err[keep]
            cols, tol = cols[short], tol[short]
            m = 0.5 * (a + b)
            stack.append((m, b, depth + 1, cols, tol, *panel(m, b, cols)))
            stack.append((a, m, depth + 1, cols, tol, *panel(a, m, cols)))
        else:
            total[cols] += val
            bound[cols] += err
    if scalar:
        total, bound = complex(total[0]), float(bound[0])
    total, bound = z_end * total, scale * bound
    if failed.any():
        bad = tuple(np.flatnonzero(failed).tolist())
        raise QuadratureError(
            f"max depth {cfg.max_depth} exceeded without convergence "
            f"on {segment} in column(s) {list(bad)}",
            total,
            bound,
            bad,
        )
    return total
