"""Schur algorithm on Caratheodory data, and the extremal Blaschke towers.

Given data c = (c_0, ..., c_n) prescribing the first n+1 Taylor
coefficients of a holomorphic self-map omega of the closed unit disk,
the Schur recursion produces parameters gamma = (gamma_0, ..., gamma_k)
that decide whether the data lies in the interior, on the boundary, or
outside the coefficient body:

    c^{(0)} = c,   gamma_j = c^{(j)}_0,
    c^{(j)}_p = ( c^{(j-1)}_{p+1}
                  + conj(gamma_{j-1}) * sum_{l=1..p} c^{(j)}_{p-l} c^{(j-1)}_l )
                / (1 - |gamma_{j-1}|^2 ).

While |gamma_j| < 1 the recursion continues; |gamma_j| > 1 stops it
(exterior); |gamma_j| = 1 freezes the remaining parameters to 0 or INF
according to whether the remaining current-level coefficients vanish.

For interior parameters the extremal self-maps form a one-parameter
family of nested Moebius towers

    omega_{gamma,eps}(z) = s_{g0}(z s_{g1}(... z s_{gn}(eps z) ...)),
    s_a(w) = (w + a) / (1 + conj(a) w),

parametrized by |eps| <= 1.  This module evaluates those towers
pointwise and as truncated Taylor series, and provides an independent
membership oracle through the norm of the lower-triangular Toeplitz
matrix built from the data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import ComplexSeries, series_mul, series_reciprocal
from .series import series_compose  # noqa: F401 (bench/tracing.py patches it here)

__all__ = [
    "INF",
    "Classification",
    "SchurParameters",
    "schur_parameters",
    "toeplitz_membership",
    "mobius_eval",
    "mobius_series",
    "BlaschkeTower",
    "tower_eval",
    "tower_taylor",
]


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


def schur_parameters(
    data: Sequence[complex], tol_unit: float = 1e-12
) -> SchurParameters:
    """Run the Schur recursion on Caratheodory data.

    Parameters
    ----------
    data : sequence of complex
        (c_0, ..., c_n), length >= 1.
    tol_unit : float
        Half-width of the band around |gamma| = 1 treated as exactly
        unimodular.  Must lie in [0, 1e-6].

    Returns
    -------
    SchurParameters
        Interior: all n+1 parameters with modulus < 1.
        Boundary: a unimodular parameter followed by exact zeros.
        Exterior: either a parameter with modulus > 1 (recursion stops
        there, trailing data is irrelevant) or a unimodular parameter
        followed by a tail containing INF.
    """
    if len(data) == 0:
        raise ValueError("data must contain at least c_0")
    if not 0 <= tol_unit <= 1e-6:
        raise ValueError("tol_unit must lie in [0, 1e-6]")
    cur = [complex(v) for v in data]
    n = len(cur) - 1
    gamma: list = []
    j = 0
    while True:
        g = cur[0]
        mod = abs(g)
        if mod > 1 + tol_unit:
            gamma.append(g)
            return SchurParameters(tuple(gamma), Classification.EXTERIOR)
        if abs(mod - 1) <= tol_unit:
            gamma.append(g)
            tail = cur[1:]
            gamma.extend(INF if v != 0 else 0j for v in tail)
            cls = (
                Classification.BOUNDARY
                if all(v == 0 for v in tail)
                else Classification.EXTERIOR
            )
            return SchurParameters(tuple(gamma), cls, boundary_index=j)
        gamma.append(g)
        if j == n:
            return SchurParameters(tuple(gamma), Classification.INTERIOR)
        denom = 1 - mod * mod
        gc = g.conjugate()
        nxt = [cur[1] / denom]
        for p in range(1, n - j):
            acc = 0j
            for l in range(1, p + 1):
                acc += nxt[p - l] * cur[l]
            nxt.append((cur[p + 1] + gc * acc) / denom)
        cur = nxt
        j += 1


def toeplitz_membership(
    data: Sequence[complex], margin: float = 1e-6
) -> Classification:
    """Independent membership oracle via the Toeplitz spectral norm.

    The data lies in the coefficient body iff the (n+1)x(n+1)
    lower-triangular Toeplitz matrix T with first column c is a
    contraction.  The spectral norm of T is its largest singular value
    (an SVD contraction test), compared with 1 using the given margin:
    below 1 - margin is interior, above 1 + margin is exterior, the band
    in between reports boundary.

    Parameters
    ----------
    data : sequence of complex
    margin : float
        Must lie in (0, 1e-3).
    """
    if len(data) == 0:
        raise ValueError("data must contain at least c_0")
    if not 0 < margin < 1e-3:
        raise ValueError("margin must lie in (0, 1e-3)")
    c = np.asarray([complex(v) for v in data])
    n = len(c)
    t = np.zeros((n, n), dtype=complex)
    for i in range(n):
        t[i:, i] = c[: n - i]
    norm = float(np.linalg.norm(t, 2))
    if norm < 1 - margin:
        return Classification.INTERIOR
    if norm > 1 + margin:
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


def _mobius_of(a: complex, s: ComplexSeries) -> ComplexSeries:
    """s_a(s) = (s + a) * (1 + conj(a) s)^-1 for a series with s(0) = 0."""
    numer = ComplexSeries((a,) + s.coeffs[1:])
    denom = ComplexSeries((1 + 0j,) + tuple(a.conjugate() * c for c in s.coeffs[1:]))
    return series_mul(numer, series_reciprocal(denom))


def mobius_series(a: complex, order: int) -> ComplexSeries:
    """Taylor series of s_a at 0: a + (1-|a|^2) w - conj(a)(1-|a|^2) w^2 - ..."""
    w = ComplexSeries.identity(max(order, 1))
    return _mobius_of(complex(a), w).truncated(order)


@dataclass(frozen=True)
class BlaschkeTower:
    """Nested Moebius tower omega_{gamma,eps}; the Schur extremal.

    gamma entries must have modulus < 1 (finite interior parameters),
    |eps| <= 1.  omega(0) equals gamma[0], and the first len(gamma)
    Taylor coefficients reproduce the Caratheodory data of gamma for
    every admissible eps.  An array ``epsilon`` holds one leaf per
    tower for tower_eval; tower_taylor needs a single leaf.
    """

    gamma: tuple[complex, ...]
    epsilon: complex | np.ndarray

    def __post_init__(self) -> None:
        if len(self.gamma) == 0:
            raise ValueError("tower needs at least gamma_0")
        g = tuple(complex(v) for v in self.gamma)
        if any(abs(v) >= 1 for v in g):
            raise ValueError("tower parameters must have modulus < 1")
        e = self.epsilon
        e = complex(e) if np.ndim(e) == 0 else np.asarray(e, dtype=complex)
        if np.any(np.abs(e) > 1 + 1e-12):
            raise ValueError("leaf parameter must satisfy |eps| <= 1")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "epsilon", e)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlaschkeTower):
            return NotImplemented
        return self.gamma == other.gamma and np.array_equal(self.epsilon, other.epsilon)

    def __hash__(self) -> int:
        return hash((self.gamma, tuple(np.ravel(self.epsilon).tolist())))


def tower_eval(
    tower: BlaschkeTower, z: complex | np.ndarray
) -> complex | np.ndarray:
    """Evaluate the tower at a point, or on an array, of the closed disk.

    Array leaves broadcast against ``z``: leaves of shape (m,) and
    points of shape (n, 1) give the (n, m) values of m towers.
    """
    return _climb(tower.gamma, z, tower.epsilon * z)


def _climb(gamma: tuple[complex, ...], z, w):
    """s_{g0}(z s_{g1}(... z s_{gn}(w) ...)): the tower over the leaf value w.

    The one pointwise climb: tower_eval passes the leaf eps z, the
    region kernel and the admissible sampler pass leaves of their own.
    """
    for a in gamma[:0:-1]:
        w = z * mobius_eval(a, w)
    return mobius_eval(gamma[0], w)


def tower_taylor(tower: BlaschkeTower, order: int) -> ComplexSeries:
    """Taylor series of the tower at 0, built from the leaf outward.

    Each level applies the Moebius map of its parameter to the series
    below (one reciprocal and one product) and multiplies by z; the
    root level applies it without the z factor.  Needs a single leaf.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if np.ndim(tower.epsilon) != 0:
        raise ValueError("tower_taylor needs one leaf, not an array of leaves")
    work = max(order, 1)
    z = ComplexSeries.identity(work)
    s = ComplexSeries.constant(tower.epsilon, work) * z
    g = tower.gamma
    for i in range(len(g) - 1, 0, -1):
        s = z * _mobius_of(g[i], s)
    return _mobius_of(g[0], s).truncated(order)

