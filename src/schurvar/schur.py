"""Schur algorithm on Caratheodory data, and the extremal Blaschke towers.

Given data c = (c_0, ..., c_n) prescribing the first n+1 Taylor
coefficients of a holomorphic self-map omega of the closed unit disk,
the Schur recursion produces parameters gamma = (gamma_0, ..., gamma_k)
that decide whether the data lies in the interior, on the boundary, or
outside the coefficient body:

    omega_0 = omega,   gamma_j = omega_j(0),
    omega_{j+1} = (omega_j - gamma_j) / (z (1 - conj(gamma_j) omega_j)).

Each step is a linear-fractional map (Schur 1917), so omega_j is kept
as a quotient num/den of truncated series, starting from (c, 1):

    gamma_j = num_0 / den_0,
    num <- (num - gamma_j den) / z,   den <- den - conj(gamma_j) num,

both cut to the coefficients the data still determines.  A level costs
O(n) and divides only once.  While |gamma_j| < 1 the recursion
continues; |gamma_j| > 1 stops it (exterior); |gamma_j| = 1, within an
absolute band of 1e-12 that the a2/a3 bridge in ``variability`` shares,
freezes the remaining parameters to 0 or INF according to whether the
remaining Taylor coefficients of omega_j vanish.

For interior parameters the extremal self-maps form a one-parameter
family of nested Moebius towers

    omega_{gamma,eps}(z) = s_{g0}(z s_{g1}(... z s_{gn}(eps z) ...)),
    s_a(w) = (w + a) / (1 + conj(a) w),

parametrized by |eps| <= 1.  This module evaluates those towers
pointwise and as truncated Taylor series (the same linear-fractional
step run backwards on a pair num/den, ended by one series division),
and provides an independent membership oracle through the norm of the
lower-triangular Toeplitz matrix built from the data.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from typing import Sequence

from ._lazy import np
from .series import ComplexSeries, series_mul, series_reciprocal
from .series import series_compose  # noqa: F401 (bench/tracing.py patches it here)

__all__ = [
    "INF",
    "Classification",
    "SchurParameters",
    "schur_parameters",
    "toeplitz_membership",
    "mobius_eval",
    "BlaschkeTower",
    "tower_eval",
    "tower_taylor",
]

# Half-width of the band around |gamma| = 1 read as exactly unimodular;
# the a2/a3 bridge in variability tests |gamma1| against the same band.
_TOL_UNIT = 1e-12


class _SchurInfinity:
    """Tagged infinity for frozen Schur parameters.

    Deliberately not a float: it must never leak into complex
    arithmetic, only be compared by identity and serialized as "inf".
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = _SchurInfinity()


class Classification(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class SchurParameters:
    """Result of the recursion: parameters plus membership class.

    ``gamma`` holds complex values, except that after a unimodular
    entry the frozen tail may contain the INF sentinel.
    ``boundary_index`` is the position of the unimodular entry when the
    recursion hit one, else None.
    """

    gamma: tuple
    classification: Classification
    boundary_index: int | None = None


def schur_parameters(data: Sequence[complex]) -> SchurParameters:
    """Run the Schur recursion on Caratheodory data.

    Parameters
    ----------
    data : sequence of complex
        (c_0, ..., c_n), length >= 1.

    Returns
    -------
    SchurParameters
        Interior: all n+1 parameters with modulus < 1.
        Boundary: a unimodular parameter followed by exact zeros.
        Exterior: either a parameter with modulus > 1 (recursion stops
        there, trailing data is irrelevant) or a unimodular parameter
        followed by a tail containing INF.

    Each level updates the pair (num, den) of omega_j = num/den in
    O(n); only a unimodular stop divides out the remaining coefficients
    of omega_j, by forward substitution.  Data exact in binary stay
    exact through the levels, so their boundary tails are exactly zero.
    A non-finite datum raises ValueError naming its index.
    """
    if len(data) == 0:
        raise ValueError("data must contain at least c_0")
    num = [complex(v) for v in data]
    for k, v in enumerate(num):
        if not cmath.isfinite(v):
            raise ValueError(f"data[{k}] = {v} is not finite")
    den = [1 + 0j] + [0j] * (len(num) - 1)
    gamma: list = []
    while True:
        g = num[0] / den[0]
        gamma.append(g)
        mod = abs(g)
        if mod > 1 + _TOL_UNIT:
            return SchurParameters(tuple(gamma), Classification.EXTERIOR)
        if abs(mod - 1) <= _TOL_UNIT:
            tail: list[complex] = []
            for a, b in zip(num[1:], den[1:]):
                shifted = sum(d * t for d, t in zip(den[1:], reversed(tail)))
                tail.append((a - g * b - shifted) / den[0])
            cls = (
                Classification.BOUNDARY
                if all(v == 0 for v in tail)
                else Classification.EXTERIOR
            )
            index = len(gamma) - 1
            gamma.extend(INF if v != 0 else 0j for v in tail)
            return SchurParameters(tuple(gamma), cls, boundary_index=index)
        if len(num) == 1:
            return SchurParameters(tuple(gamma), Classification.INTERIOR)
        gc = g.conjugate()
        rest, low = [], []
        for a, b in zip(num, den):
            rest.append(a - g * b)
            low.append(b - gc * a)
        num, den = rest[1:], low[:-1]


def toeplitz_membership(
    data: Sequence[complex], margin: float = 1e-6
) -> Classification:
    """Independent membership oracle via the Toeplitz spectral norm.

    The data lies in the coefficient body iff the (n+1)x(n+1)
    lower-triangular Toeplitz matrix T with first column c is a
    contraction.  Its spectral norm is compared with 1 using the given
    margin, without computing it: the norm is below 1 - margin iff
    (1 - margin)^2 I - T^H T is positive definite (interior), and above
    1 + margin iff (1 + margin)^2 I - T^H T is not (exterior); a
    Cholesky factorization decides each.  The band in between reports
    boundary.

    Parameters
    ----------
    data : sequence of complex
        Must be finite.
    margin : float
        Must lie in (0, 1e-3).
    """
    if len(data) == 0:
        raise ValueError("data must contain at least c_0")
    if not 0 < margin < 1e-3:
        raise ValueError("margin must lie in (0, 1e-3)")
    c = np.asarray([complex(v) for v in data])
    if not np.isfinite(c).all():
        raise ValueError("data must be finite")
    n = len(c)
    # T[i, k] = c[i - k]; a negative index i - k lands in the zero tail.
    t = np.concatenate([c, np.zeros(n - 1)])[np.subtract.outer(np.arange(n), np.arange(n))]
    gram = t.conj().T @ t
    eye = np.eye(n)

    def positive_definite(radius: float) -> bool:
        try:
            np.linalg.cholesky(radius**2 * eye - gram)
        except np.linalg.LinAlgError:
            return False
        return True

    if positive_definite(1 - margin):
        return Classification.INTERIOR
    if not positive_definite(1 + margin):
        return Classification.EXTERIOR
    return Classification.BOUNDARY


def mobius_eval(a: complex, z: complex | np.ndarray) -> complex | np.ndarray:
    """Disk automorphism s_a(z) = (z + a) / (1 + conj(a) z).

    ``z`` may be a point or an array, evaluated elementwise.

    Raises
    ------
    ZeroDivisionError
        If a denominator underflows ("pole hit").
    """
    a = complex(a)
    denom = 1 + a.conjugate() * z
    if np.any(abs(denom) <= 1e-300):
        raise ZeroDivisionError("pole hit")
    return (z + a) / denom


@dataclass(frozen=True)
class BlaschkeTower:
    """Nested Moebius tower omega_{gamma,eps}; the Schur extremal.

    gamma entries must have modulus < 1 (finite interior parameters),
    |eps| <= 1.  omega(0) equals gamma[0], and the first len(gamma)
    Taylor coefficients reproduce the Caratheodory data of gamma for
    every admissible eps.
    """

    gamma: tuple[complex, ...]
    epsilon: complex

    def __post_init__(self) -> None:
        if len(self.gamma) == 0:
            raise ValueError("tower needs at least gamma_0")
        g = tuple(complex(v) for v in self.gamma)
        if not all(abs(v) < 1 for v in g):
            raise ValueError("tower parameters must have modulus < 1")
        e = complex(self.epsilon)
        if not abs(e) <= 1 + 1e-12:
            raise ValueError("leaf parameter must satisfy |eps| <= 1")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "epsilon", e)


def tower_eval(
    tower: BlaschkeTower, z: complex | np.ndarray
) -> complex | np.ndarray:
    """Evaluate the tower at a point, or on an array, of the closed disk."""
    return _climb(tower.gamma, z, tower.epsilon * z)


def _climb(gamma: tuple[complex, ...], z, w):
    """s_{g0}(z s_{g1}(... z s_{gn}(w) ...)): the tower over the leaf value w.

    The one pointwise climb: tower_eval passes the leaf eps z, the
    region kernel and the admissible sampler pass leaves of their own.
    The parameters are validated to |a| < 1 and every leaf has |w| <= 1,
    so each level has |1 + conj(a) w| >= 1 - |a| > 0: unlike
    mobius_eval, the climb needs no pole guard.

    z and w may be points or arrays that broadcast together.  Every
    operation keeps its operand order (conj(a) w, w + a, then z times the
    quotient): numpy's complex multiply is not bit-symmetric, and the
    climb must give mobius_eval's bits.
    """
    for a in gamma[:0:-1]:
        w = z * ((w + a) / (1 + a.conjugate() * w))
    a = gamma[0]
    return (w + a) / (1 + a.conjugate() * w)


def _climb_bound(gamma: tuple[complex, ...], s: float) -> float:
    """A bound on |_climb(gamma, z, w)| over |z| <= s and |w| <= |z|.

    Schwarz-Pick: |s_a(w)| <= (|w| + |a|)/(1 + |a| |w|), which grows with
    |w|, so climbing the moduli from the leaf bound s bounds every level.
    """
    w = s
    for a in gamma[:0:-1]:
        m = abs(a)
        w = s * (w + m) / (1 + m * w)
    m = abs(gamma[0])
    return (w + m) / (1 + m * w)


def tower_taylor(tower: BlaschkeTower, order: int) -> ComplexSeries:
    """Taylor series of the tower at 0, by Schur's step run backwards.

    The tower is kept as a quotient num/den of coefficient arrays cut
    to the order, from the leaf pair (eps z, 1) outward: a level maps
    (num, den) to (z (num + a den), den + conj(a) num), the root level
    without the z factor.  num(0) = 0 below the root, so den(0) = 1
    throughout and one reciprocal and one product finish the series.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num = np.zeros(order + 1, dtype=complex)
    num[1:2] = tower.epsilon  # the leaf eps z; at order 0 it is cut away
    den = np.zeros(order + 1, dtype=complex)
    den[0] = 1
    for a in tower.gamma[:0:-1]:
        num, den = num + a * den, den + a.conjugate() * num
        num = np.concatenate(([0j], num[:-1]))
    a = tower.gamma[0]
    num, den = num + a * den, den + a.conjugate() * num
    return series_mul(
        ComplexSeries(tuple(num.tolist())), series_reciprocal(ComplexSeries(tuple(den.tolist())))
    )
