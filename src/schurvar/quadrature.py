"""Contour quadrature along straight segments from the origin.

Integrals here are always of the form  int_0^{z_end} f(zeta) d(zeta)
along the straight segment zeta(t) = t z_end, t in [0, 1].  All nodes
are interior, so a removable singularity at the origin (a 1/zeta weight
against a vanishing numerator) needs no special case.  Two schemes
use Gauss rules:

* ``integrate_segment`` is adaptive.  Each panel is the G15/K31
  Gauss-Kronrod pair (QUADPACK qk31), its error estimate is |K31 - G15|,
  and panels failing their share of the budget are bisected.
* ``_gauss_segment`` plans its panels before it evaluates anything.  On
  a panel of centre c and half-length h in t, the N-point Gauss rule
  errs by at most |z_end| h (64/15) M rho^(2 - 2N) / (rho^2 - 1) for an
  integrand bounded by M inside the panel's Bernstein ellipse E_rho
  (Trefethen, Approximation Theory and Approximation Practice, SIAM
  2013, Thm 19.3, whose n + 1 points are N).  E_rho reaches out to
  |zeta| = |z_end| (c + h (rho + 1/rho)/2), and the caller bounds the
  integrand on that disk.  Each panel takes the fewest nodes of
  N = 10, 15, 20, 30 that meet its share of the budget.  The bound
  covers truncation, not rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from ._lazy import np

__all__ = ["QuadratureConfig", "QuadratureError", "integrate_segment"]

# The G15/K31 pair is given by its non-negative Kronrod abscissae
# (descending; the last is 0), their Kronrod weights, and the Gauss
# weights of the odd-indexed abscissae x_1, x_3, ..., 0.  Standard
# values (QUADPACK qk31).
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


@functools.cache
def _rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 31-node rule on [-1, 1]: nodes, Kronrod weights and Kronrod
    minus Gauss weights (the Gauss nodes sit at the odd positions)."""
    x = np.concatenate([np.negative(_XGK31), _XGK31[-2::-1]])
    wk = np.concatenate([_WGK31, _WGK31[-2::-1]])
    wd = wk.copy()
    wd[1::2] -= _WG15 + _WG15[-2::-1]
    return x, wk, wd


# The other Gauss-Legendre rules of the planned kernel, each given by
# its positive nodes (descending) and their weights, correctly rounded.
_GAUSS = {
    10: (
        (0.9739065285171717, 0.06667134430868814),
        (0.8650633666889845, 0.1494513491505806),
        (0.6794095682990244, 0.21908636251598204),
        (0.4333953941292472, 0.26926671930999635),
        (0.14887433898163122, 0.29552422471475287),
    ),
    20: (
        (0.9931285991850949, 0.017614007139152118),
        (0.9639719272779138, 0.04060142980038694),
        (0.912234428251326, 0.06267204833410907),
        (0.8391169718222188, 0.08327674157670475),
        (0.7463319064601508, 0.10193011981724044),
        (0.636053680726515, 0.11819453196151841),
        (0.5108670019508271, 0.13168863844917664),
        (0.37370608871541955, 0.14209610931838204),
        (0.22778585114164507, 0.14917298647260374),
        (0.07652652113349734, 0.15275338713072584),
    ),
    30: (
        (0.9968934840746495, 0.007968192496166605),
        (0.9836681232797472, 0.01846646831109096),
        (0.9600218649683075, 0.02878470788332337),
        (0.9262000474292743, 0.03879919256962705),
        (0.8825605357920527, 0.04840267283059405),
        (0.8295657623827684, 0.057493156217619065),
        (0.7677774321048262, 0.06597422988218049),
        (0.6978504947933158, 0.0737559747377052),
        (0.6205261829892429, 0.08075589522942021),
        (0.5366241481420199, 0.08689978720108298),
        (0.44703376953808915, 0.09212252223778612),
        (0.3527047255308781, 0.09636873717464425),
        (0.25463692616788985, 0.09959342058679527),
        (0.15386991360858354, 0.1017623897484055),
        (0.0514718425553177, 0.10285265289355884),
    ),
}
# The planned kernel's node counts, fewest first.
_SIZES = (10, 15, 20, 30)


@functools.cache
def _gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule on [-1, 1], nodes ascending; for n = 15 the
    odd-indexed K31 nodes."""
    if n == 15:
        return _rule()[0][1::2], np.asarray(_WG15 + _WG15[-2::-1])
    x, w = np.array(_GAUSS[n]).T
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and recursion limit.

    The region kernel plans against abs_tol alone, which also meets
    max(abs_tol, rel_tol |Q|); rel_tol and max_depth are read only by
    the adaptive integrate_segment.
    """

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
    """Raised when a budget is not met (bisection hits max_depth, or a
    plan its panel cap), or when the integrand returned a non-finite
    value or finite values whose weighted sum overflows.

    Carries the best available estimate and its error bound (one per
    column for the planned kernel), and the indices of the failing
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
) -> complex:
    """Integrate along the segment from 0 to z_end, adaptively.

    The estimated error of the result is at most
    max(abs_tol, rel_tol * |result|), the relative scale taken from a
    first whole-segment panel.  A panel that meets its share of that
    budget (or lies at max_depth) is kept; the others go on to their
    halves.  The integrand must be analytic on a neighborhood of the
    segment, and is called once per panel on its 31 nodes, shape (31,).
    z_end = 0 gives the empty contour and an exact 0 without a call.

    Raises
    ------
    QuadratureError
        If a panel still fails its budget at max_depth (the exception
        carries the estimate and its error bound), or if a panel's
        Kronrod sum is non-finite: a non-finite integrand value (every
        Kronrod weight is positive, so no such value cancels) or finite
        values whose sum overflows.
    """
    if cfg is None:
        cfg = DEFAULT_CONFIG
    z_end = complex(z_end)
    if z_end == 0:
        return 0j
    x, wk, wd = _rule()

    def panel(a: float, b: float) -> tuple[complex, float]:
        """Kronrod value and |Kronrod - Gauss| on [a, b]."""
        f = integrand((0.5 * (a + b) + 0.5 * (b - a) * x) * z_end)
        # A non-finite value, or a sum that overflows, is raised, not warned about.
        with np.errstate(invalid="ignore", over="ignore"):
            kronrod, diff = wk @ f, wd @ f
        if not np.isfinite(kronrod):
            raise QuadratureError(
                f"non-finite integrand value or Kronrod sum on [0, {z_end}]", complex("nan"), math.inf
            )
        h = 0.5 * (b - a)
        return h * kronrod, h * abs(diff)

    first, err0 = panel(0.0, 1.0)
    scale = abs(z_end)
    # Error budget in t-space, shared by panels in proportion to their length.
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(first) * scale) / scale
    total, bound, failed = 0j, 0.0, False
    stack = [(0.0, 1.0, 0, first, err0)]
    while stack:
        a, b, depth, val, err = stack.pop()
        short = err > tol * (b - a)
        if short and depth < cfg.max_depth:
            m = 0.5 * (a + b)
            stack.append((m, b, depth + 1, *panel(m, b)))
            stack.append((a, m, depth + 1, *panel(a, m)))
        else:
            failed |= short
            total += val
            bound += err
    total, bound = complex(z_end * total), scale * bound
    if failed:
        raise QuadratureError(
            f"max depth {cfg.max_depth} exceeded without convergence on [0, {z_end}]", total, bound
        )
    return total


# A plan holds at most this many panels.
_MAX_PANELS = 64
# A panel's rho lies this share of the way from 1 to the rho of the
# ellipse that touches the unit circle.
_REACH = 0.8


def _panel(
    a: float, b: float, r: float, sup: Callable[[float], float], tol: float
) -> tuple[float, float, int, float]:
    """(a, b, n, bound): the fewest nodes n of _SIZES whose bound on [a, b]
    for an endpoint of modulus r meets tol (b - a), else 30, and its bound."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    # (rho + 1/rho)/2 = half puts the ellipse's far end on |zeta| = 1.
    half = (1 / r - c) / h
    rho = 1 + _REACH * (half + math.sqrt(half * half - 1) - 1)
    s = r * (c + 0.5 * h * (rho + 1 / rho))
    scale = r * h * (64 / 15) * sup(s) / (rho * rho - 1)
    for n in _SIZES:
        bound = scale * rho ** (2 - 2 * n)
        if bound <= tol * (b - a):
            break
    return a, b, n, bound


def _gauss_segment(
    integrand: Callable[[np.ndarray], np.ndarray],
    z_end: complex | np.ndarray,
    sup: Callable[[float], float],
    tol: float,
) -> tuple[np.ndarray, float]:
    """The integrals along [0, z_end[c]], one per column c, and their bound.

    0 < |z_end| < 1, and sup(s) bounds the integrand on |zeta| <= s < 1.
    Each panel of [0, 1] takes the fewest nodes N of 10, 15, 20 and 30
    whose bound is at most tol (b - a); a panel that misses it at N = 30
    is halved, up to _MAX_PANELS panels.  An array z_end is planned for
    its largest modulus, whose bound covers every column.  The integrand
    is then called once per panel on its N Gauss nodes, shape (N, 1), or
    (N, m) with column c at t z_end[c], and returns one column per
    integral.  The bound returned is the sum of the panel bounds.

    Raises
    ------
    QuadratureError
        If a column's sum is non-finite (only those columns are named),
        or if the capped plan still misses tol (every column is named,
        with its estimate and the bound reached).
    """
    r = float(np.max(np.abs(z_end)))
    cuts = [0.0, 1.0]
    while True:
        panels = [_panel(a, b, r, sup, tol) for a, b in zip(cuts, cuts[1:])]
        # A NaN bound is short too.
        short = [not e <= tol * (b - a) for a, b, _, e in panels]
        if not any(short) or len(panels) + sum(short) > _MAX_PANELS:
            break
        cuts = sorted(cuts + [0.5 * (a + b) for (a, b, *_), cut in zip(panels, short) if cut])
    total = 0j
    for a, b, n, _ in panels:
        x, w = _gauss(n)
        f = integrand((0.5 * (a + b) + 0.5 * (b - a) * x)[:, None] * z_end)
        with np.errstate(invalid="ignore", over="ignore"):
            total = total + 0.5 * (b - a) * (w @ f)
    with np.errstate(invalid="ignore", over="ignore"):
        total = z_end * total
    bound = math.fsum(e for *_, e in panels)
    bad = tuple(np.flatnonzero(~np.isfinite(total)).tolist())
    if bad:
        raise QuadratureError(
            f"non-finite integrand value or Gauss sum on [0, z_end[c]] in column(s) {list(bad)}",
            total, np.full(len(total), math.inf), bad,
        )
    if any(short):
        raise QuadratureError(
            f"{len(panels)} panels bound the error by {bound:.3g} > {tol:.3g} on [0, z_end[c]]",
            total, np.full(len(total), bound), tuple(range(len(total))),
        )
    return total, bound
