"""Conformal target-domain maps P with P(0) = 1.

Each map sends the open unit disk onto a convex region containing 1 and
is normalized so the region data enters only through the first two
Taylor coefficients alpha1, alpha2 of P at 0.  The catalog:

``halfplane``  (1 + (1-2a) z) / (1 - z), the half-plane Re w > a, a < 1:
               the ``janowski`` map with A = 1 - 2a and B = -1.
``sector``     ((1+z)/(1-z))^b, a sector of half-angle b*pi/2, 0 < b <= 1.
``janowski``   (1 + A z) / (1 + B z), a disk or half-plane, |B| <= 1, A != B.
``kucv``       the conic-section map of parameter k in [0, 1]:
               for k < 1, cosh(A_k log((1+sqrt z)/(1-sqrt z)))/(1-k^2)
               - k^2/(1-k^2) with A_k = (2/pi) arccos k; for k = 1,
               1 + (2/pi^2) log((1+sqrt z)/(1-sqrt z))^2.  The k > 1
               elliptic branch is not implemented.

The sector and conic maps are evaluated in real float64 arithmetic
through one kernel, the real and imaginary parts of
ell(x) = log((1+x)/(1-x)) = 2 artanh x for |x| < 1: the sector takes
ell(z) and forms exp(b ell), the conic map takes ell at the principal
sqrt z and forms cosh(A_k ell) or ell^2 from their real parts.  numpy's
complex log, exp, sqrt and cosh cost several times more per element.

Both need cos phi and sin phi of phi = Im(b ell) or Im(A_k ell).  They
come from one tangent, t = tan(phi/2), as (1 - t^2)/(1 + t^2) and
2t/(1 + t^2): numpy's float64 cos and sin each cost about five times
its tan.  The formulas are safe where the maps use them.  For |x| < 1,
Re((1+x)/(1-x)) > 0, so |Im ell| < pi/2, and b, A_k <= 1 keep
|phi| < pi/2.  Then |t| < 1 and 1 + t^2 lies in [1, 2), so an error of
one ulp in t moves cos and sin by a few ulp of 1.

Every kernel is a plain expression that never writes its argument.  A
point runs through the same kernels on numpy scalars and gives the bits
the same point gives in an array.  For that every square is written as
a product: on an array numpy forms x ** 2 as the correctly rounded
x * x, but on a numpy scalar it calls libm's pow, which rounds some
squares the other way.  The sector map and ``_sqrt`` copy z.real and
z.imag once, since each of the several ufuncs that read them runs
faster on a contiguous array than on a strided view.

Every map's Taylor series is closed form, and alpha1, alpha2 are read
off it: geometric series for the Moebius maps, exp(b ell) for the
sector with ell(z) = sum over odd p of 2 z^p / p, and for the conic map
a composition with u(z) = ell(sqrt z)^2 = sum_{n>=1} (4/n)
(1 + 1/3 + ... + 1/(2n-1)) z^n, since cosh(A ell) = sum_m A^{2m}
u^m / (2m)!.  None of them samples P.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import _EXPORTS
from .series import ComplexSeries, series_compose, series_exp

__all__ = list(_EXPORTS["domains"])


@dataclass(frozen=True)
class DomainSpec:
    """Parsed domain request: a kind plus named parameters."""

    kind: str
    params: Mapping[str, complex]


class DomainMap:
    """Base for the catalog maps.  Immutable after construction.

    A map's spec is its ``kind`` and its ``params``: each parameter name
    is an attribute, in the constructor's order, with its type (float or
    complex).  A class-level value of a parameter is its default.
    """

    kind: str
    params: Mapping[str, type]

    def __init__(self) -> None:
        self._taylor_memo: dict[int, ComplexSeries] = {}

    @property
    def alpha1(self) -> complex:
        return self.taylor(2).coeffs[1]

    @property
    def alpha2(self) -> complex:
        return self.taylor(2).coeffs[2]

    def eval(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """P(z) at a point, or elementwise on an array, of the open disk.

        An array gives a new array; z itself is never written.  The region
        kernel calls it only at gamma_0, and ``_eval`` on its arrays.
        """
        z = np.asarray(z, dtype=complex)
        if not np.abs(z).max(initial=0) < 1:
            raise ValueError("domain map argument must satisfy |z| < 1")
        w = self._eval(z)
        return w if z.ndim else complex(w)

    def _eval(self, z: np.ndarray) -> np.ndarray:
        """P on z, read only; a 0-d z runs on numpy scalars."""
        raise NotImplementedError

    def max_modulus(self, r: float) -> float:
        """An upper bound on |P| over the closed disk |z| <= r, 0 <= r < 1."""
        if not 0 <= r < 1:
            raise ValueError("max_modulus radius must satisfy 0 <= r < 1")
        return self._max_modulus(r)

    def _max_modulus(self, r: float) -> float:
        raise NotImplementedError

    def taylor(self, order: int) -> ComplexSeries:
        order = operator.index(order)
        if order < 0:
            raise ValueError("order must be >= 0")
        memo = self._taylor_memo.get(order)
        if memo is None:
            memo = self._taylor(order)
            self._taylor_memo[order] = memo
        return memo

    def _taylor(self, order: int) -> ComplexSeries:
        raise NotImplementedError

    def spec_string(self) -> str:
        """The spec text that parses back to this very map, bit for bit."""
        values = ",".join(f"{name}={_fmt_param(getattr(self, name))}" for name in self.params)
        return f"{self.kind}:{values}"


class Sector(DomainMap):
    """Map onto the sector |arg w| < beta*pi/2, 0 < beta <= 1."""

    kind, params = "sector", {"beta": float}

    def __init__(self, beta: float):
        super().__init__()
        beta = float(beta)
        if not 0 < beta <= 1:
            raise ValueError("sector aperture must satisfy 0 < beta <= 1")
        self.beta = beta

    def _eval(self, z: np.ndarray) -> np.ndarray:
        m, im = _ell(z.real.copy(), z.imag.copy())
        cos, sin = _cis(self.beta * im)
        m = np.exp(self.beta * m)
        return _pack(m * cos, m * sin)

    def _max_modulus(self, r: float) -> float:
        # Positive Taylor coefficients: the maximum is P(r).
        return ((1 + r) / (1 - r)) ** self.beta

    def _taylor(self, order: int) -> ComplexSeries:
        # exp(b ell) with ell = sum over odd p of 2 z^p / p: every term of
        # the recurrence is positive, so narrow sectors lose no digits.
        ell = (0,) + tuple(2 * self.beta / p if p % 2 else 0 for p in range(1, order + 1))
        return series_exp(ComplexSeries(ell))


class Janowski(DomainMap):
    """Moebius map (1 + A z)/(1 + B z); |B| <= 1 and A != B."""

    kind, params = "janowski", {"A": complex, "B": complex}

    def __init__(self, a: complex, b: complex):
        super().__init__()
        a = complex(a)
        b = complex(b)
        if abs(b) > 1:
            raise ValueError("denominator parameter must satisfy |B| <= 1")
        if a == b:
            raise ValueError("parameters must satisfy A != B")
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("parameters must be finite")
        self.A = a
        self.B = b

    def _eval(self, z: np.ndarray) -> np.ndarray:
        return (self.A * z + 1) / (self.B * z + 1)

    def _max_modulus(self, r: float) -> float:
        # |z| <= r maps onto the disk of centre (1 - A conj(B) r^2)/d and
        # radius |A - B| r/d, d = 1 - |B|^2 r^2 = (1 - |B| r)(1 + |B| r),
        # whose farthest point from 0 lies |centre| + radius away.  Where
        # A conj(B) <= 0, |1 + A z| and 1/|1 + B z| peak at the same point
        # and that distance is (1 + |A| r)/(1 - |B| r), whose bits are kept.
        ab = self.A * self.B.conjugate()
        if ab.imag == 0 and ab.real <= 0:
            return (1 + abs(self.A) * r) / (1 - abs(self.B) * r)
        b = abs(self.B) * r
        d = (1 - b) * (1 + b)
        return abs((1 - ab * (r * r)) / d) + abs(self.A - self.B) * r / d

    def _taylor(self, order: int) -> ComplexSeries:
        out = [1 + 0j]
        coeff = self.A - self.B
        for p in range(1, order + 1):
            out.append(coeff)
            coeff = coeff * (-self.B)
        return ComplexSeries(tuple(out))


class HalfPlane(Janowski):
    """Map onto the half-plane Re w > alpha, alpha < 1: Janowski(1 - 2 alpha, -1)."""

    kind, params = "halfplane", {"alpha": float}
    alpha = 0.0  # a spec may leave it out

    def __init__(self, alpha: float = 0.0):
        alpha = float(alpha)
        if not alpha < 1:
            raise ValueError("half-plane order must satisfy alpha < 1")
        if not math.isfinite(1 - 2 * alpha):
            raise ValueError(
                f"half-plane order alpha = {alpha!r} overflows 1 - 2 alpha, which must be finite"
            )
        super().__init__(1 - 2 * alpha, -1)
        self.alpha = alpha

    def _taylor(self, order: int) -> ComplexSeries:
        # 2(1 - alpha) rounds once; A - B = fl(1 - 2 alpha) + 1 twice, which can move alpha1 an ulp.
        c = 2 * (1 - self.alpha)
        return ComplexSeries((1 + 0j,) + (complex(c),) * order)


class ConicSection(DomainMap):
    """Conic-section map of parameter k in [0, 1].

    k = 0 is the right half-plane, 0 < k < 1 a hyperbolic region,
    k = 1 the parabolic region Re w > |w - 1|.  The elliptic branch
    k > 1 is out of scope.
    """

    kind, params = "kucv", {"k": float}

    def __init__(self, k: float):
        super().__init__()
        k = float(k)
        if k < 0:
            raise ValueError("conic parameter must satisfy k >= 0")
        if k > 1:
            raise ValueError("elliptic branch unsupported")
        if math.isnan(k):
            raise ValueError("conic parameter must be finite")
        self.k = k

    def _eval(self, z: np.ndarray) -> np.ndarray:
        re, im = _ell(*_sqrt(z))
        if self.k == 1:
            c = 2 / math.pi**2
            return _pack(1 + c * (re * re - im * im), 2 * c * re * im)
        k2 = self.k * self.k
        a = 2 / math.pi * math.acos(self.k)
        re, im = a * re, a * im
        cos, sin = _cis(im)
        return _pack((np.cosh(re) * cos - k2) / (1 - k2), np.sinh(re) * sin / (1 - k2))

    def _max_modulus(self, r: float) -> float:
        # Positive Taylor coefficients: the maximum is P(r).  ell(sqrt r)
        # = 2 artanh sqrt r = log((1 + sqrt r)^2 / (1 - r)), a form that
        # stays finite where sqrt r rounds to 1.
        ell = 2 * math.log1p(math.sqrt(r)) - math.log1p(-r)
        if self.k == 1:
            return 1 + 2 / math.pi**2 * ell * ell
        k2 = self.k * self.k
        return (math.cosh(2 / math.pi * math.acos(self.k) * ell) - k2) / (1 - k2)

    def _taylor(self, order: int) -> ComplexSeries:
        # u = ell(sqrt z)^2, whose n-th coefficient is (4/n) times the sum
        # of the first n odd reciprocals; P is cosh(A_k sqrt u) composed
        # with u, or affine in u at k = 1.
        u = [0.0]
        odd = 0.0
        for n in range(1, order + 1):
            odd += 1 / (2 * n - 1)
            u.append(4 * odd / n)
        if self.k == 1:
            c = 2 / math.pi**2
            return ComplexSeries((1,) + tuple(c * x for x in u[1:]))
        a = 2 / math.pi * math.acos(self.k)
        cosh = [1.0]
        for m in range(1, order + 1):
            cosh.append(cosh[-1] * (a * a) / ((2 * m - 1) * 2 * m))
        outer = (1,) + tuple(c / (1 - self.k * self.k) for c in cosh[1:])
        return series_compose(ComplexSeries(outer), ComplexSeries(tuple(u)))


_TINY = sys.float_info.min


def _sqrt(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the principal sqrt z, as new arrays.

    With t = sqrt((|x| + |z|)/2) for z = x + iy, sqrt z is (t, y/2t) if
    x >= 0, else (|y|/2t, copysign(t, y)).  t is 0 only at z = 0 or a
    subnormal z; flooring it at the least normal float keeps y/2t finite
    there, far below P's rounding.
    """
    x, y = z.real.copy(), z.imag.copy()
    t = np.sqrt((np.abs(x) + np.abs(z)) / 2)
    s = y / (2 * np.maximum(t, _TINY))
    right = x >= 0
    return np.where(right, t, np.abs(s)), np.where(right, s, np.copysign(t, y))


def _ell(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of log((1+x)/(1-x)) = 2 artanh x, x = p + iq.

    For |x| < 1, Re = sign(p) log1p(4|p| / ((1-|p|)^2 + q^2)) / 2 and
    Im = atan2(2q, (1-p)(1+p) - q^2) (Kahan, "Branch cuts for complex
    elementary functions", 1987).  Re is odd in p; taking |p| keeps the
    log1p argument >= 0, where the plain log1p(4p/((1-p)^2 + q^2))
    cancels as x -> -1.  The denominator is >= (1 - |x|)^2 > 0.  Both
    parts are new arrays (scalars for a point); p and q are read only.
    """
    a = np.abs(p)
    d = 1 - a
    q2 = q * q
    re = np.copysign(0.5 * np.log1p(4 * a / (d * d + q2)), p)
    im = np.arctan2(2 * q, (1 - p) * (1 + p) - q2)
    return re, im


def _cis(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos phi and sin phi for phi in (-pi, pi), from t = tan(phi/2).

    cos = (1 - t^2)/(1 + t^2) and sin = 2t/(1 + t^2), within 2.2e-16 of
    40-digit references on all of (-pi, pi), to within 1e-9 of its ends;
    the maps need only |phi| < pi/2.
    """
    t = np.tan(0.5 * phi)
    t2 = t * t
    den = 1 + t2
    return (1 - t2) / den, 2 * t / den


def _pack(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _fmt_real(x: float) -> str:
    """Shortest text that parses back to x exactly, without a trailing .0."""
    s = repr(x)
    return s[:-2] if s.endswith(".0") else s


def _fmt_param(v: complex) -> str:
    if v.imag == 0:
        return _fmt_real(v.real)
    im = _fmt_real(v.imag)
    return f"{_fmt_real(v.real)}{'' if im.startswith('-') else '+'}{im}i"


def make_domain(spec: DomainSpec) -> DomainMap:
    """Build a catalog map from a parsed spec.

    A bad spec raises ValueError for the first fault in this order: an
    unknown kind; each parameter in turn, missing before not real before
    not finite; the map's own range checks; then unexpected names.
    """
    kinds = {c.kind: c for c in (HalfPlane, Sector, Janowski, ConicSection)}
    if spec.kind not in kinds:
        raise ValueError(f"unknown domain kind '{spec.kind}'")
    cls = kinds[spec.kind]
    params = dict(spec.params)
    args = []
    for name, typ in cls.params.items():
        if name not in params and not hasattr(cls, name):
            raise ValueError(f"domain kind '{spec.kind}' requires parameter '{name}'")
        v = complex(params.pop(name, getattr(cls, name, None)))
        if typ is float and v.imag != 0:
            raise ValueError(f"parameter '{name}' must be real")
        if not cmath.isfinite(v):
            raise ValueError(f"parameter '{name}' must be finite")
        args.append(v.real if typ is float else v)
    dom = cls(*args)
    if params:
        extra = ", ".join(sorted(params))
        raise ValueError(f"unexpected parameter(s) for '{spec.kind}': {extra}")
    return dom

