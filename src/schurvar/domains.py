"""Conformal target-domain maps P with P(0) = 1.

Each map sends the open unit disk onto a convex region containing 1 and
is normalized so the region data enters only through the first two
Taylor coefficients alpha1, alpha2 of P at 0.  The catalog:

``halfplane``  (1 + (1-2a) z) / (1 - z), the half-plane Re w > a, a < 1.
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

``_ell``, ``_sqrt``, ``_cis`` and the sector and conic maps work in
place, but only on arrays they allocated themselves; the argument of
``eval`` is never written.  A panel of the trace evaluates thousands of
points, and each fresh temporary of that size is memory the allocator
may hand back to the system and fault in again on the next panel.  The
Moebius maps are plain expressions, four or five temporaries per
panel.  A point runs through the same kernels on numpy scalars, which
the in-place steps replace instead: a ufunc call that writes into an
array of one costs several times a scalar one.

Every map's Taylor series is closed form, and alpha1, alpha2 are read
off it: geometric series for the Moebius maps, exp(b ell) for the
sector with ell(z) = sum over odd p of 2 z^p / p, and for the conic map
a composition with u(z) = ell(sqrt z)^2 = sum_{n>=1} (4/n)
(1 + 1/3 + ... + 1/(2n-1)) z^n, since cosh(A ell) = sum_m A^{2m}
u^m / (2m)!.  None of them samples P.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

from ._lazy import np
from .series import ComplexSeries, series_compose, series_exp

__all__ = [
    "DomainSpec",
    "DomainMap",
    "HalfPlane",
    "Sector",
    "Janowski",
    "ConicSection",
    "make_domain",
]


@dataclass(frozen=True)
class DomainSpec:
    """Parsed domain request: a kind plus named parameters."""

    kind: str
    params: Mapping[str, complex]


class DomainMap:
    """Base for the catalog maps.  Immutable after construction."""

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

        An array gives a new array; z itself is never written.
        """
        z = np.asarray(z, dtype=complex)
        if not np.all(np.abs(z) < 1):
            raise ValueError("domain map argument must satisfy |z| < 1")
        w = self._eval(z)
        return w if z.ndim else complex(w)

    def _eval(self, z: np.ndarray) -> np.ndarray:
        """P on z, read only; a 0-d z runs on numpy scalars."""
        raise NotImplementedError

    def max_modulus(self, r: float) -> float:
        """An upper bound on |P| over the closed disk |z| <= r, 0 <= r < 1."""
        raise NotImplementedError

    def taylor(self, order: int) -> ComplexSeries:
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
        raise NotImplementedError


class HalfPlane(DomainMap):
    """Map onto the half-plane Re w > alpha, alpha < 1."""

    def __init__(self, alpha: float = 0.0):
        super().__init__()
        alpha = float(alpha)
        if not alpha < 1:
            raise ValueError("half-plane order must satisfy alpha < 1")
        self.alpha = alpha

    def _eval(self, z: np.ndarray) -> np.ndarray:
        return ((1 - 2 * self.alpha) * z + 1) / (1 - z)

    def max_modulus(self, r: float) -> float:
        return (1 + abs(1 - 2 * self.alpha) * r) / (1 - r)

    def _taylor(self, order: int) -> ComplexSeries:
        c = 2 * (1 - self.alpha)
        return ComplexSeries((1 + 0j,) + (complex(c),) * order)

    def spec_string(self) -> str:
        return f"halfplane:alpha={_fmt_real(self.alpha)}"


class Sector(DomainMap):
    """Map onto the sector |arg w| < beta*pi/2, 0 < beta <= 1."""

    def __init__(self, beta: float):
        super().__init__()
        beta = float(beta)
        if not 0 < beta <= 1:
            raise ValueError("sector aperture must satisfy 0 < beta <= 1")
        self.beta = beta

    def _eval(self, z: np.ndarray) -> np.ndarray:
        m, im = _ell(z.real, z.imag)
        m *= self.beta
        m = np.exp(m, out=_own(m))
        im *= self.beta
        cos, sin = _cis(im)
        cos *= m
        sin *= m
        return _pack(cos, sin)

    def max_modulus(self, r: float) -> float:
        # Positive Taylor coefficients: the maximum is P(r).
        return ((1 + r) / (1 - r)) ** self.beta

    def _taylor(self, order: int) -> ComplexSeries:
        # exp(b ell) with ell = sum over odd p of 2 z^p / p: every term of
        # the recurrence is positive, so narrow sectors lose no digits.
        ell = (0,) + tuple(2 * self.beta / p if p % 2 else 0 for p in range(1, order + 1))
        return series_exp(ComplexSeries(ell))

    def spec_string(self) -> str:
        return f"sector:beta={_fmt_real(self.beta)}"


class Janowski(DomainMap):
    """Moebius map (1 + A z)/(1 + B z); |B| <= 1 and A != B."""

    def __init__(self, a: complex, b: complex):
        super().__init__()
        a = complex(a)
        b = complex(b)
        if abs(b) > 1:
            raise ValueError("denominator parameter must satisfy |B| <= 1")
        if a == b:
            raise ValueError("parameters must satisfy A != B")
        self.A = a
        self.B = b

    def _eval(self, z: np.ndarray) -> np.ndarray:
        return (self.A * z + 1) / (self.B * z + 1)

    def max_modulus(self, r: float) -> float:
        return (1 + abs(self.A) * r) / (1 - abs(self.B) * r)

    def _taylor(self, order: int) -> ComplexSeries:
        out = [1 + 0j]
        coeff = self.A - self.B
        for p in range(1, order + 1):
            out.append(coeff)
            coeff = coeff * (-self.B)
        return ComplexSeries(tuple(out))

    def spec_string(self) -> str:
        return f"janowski:A={_fmt_param(self.A)},B={_fmt_param(self.B)}"


class ConicSection(DomainMap):
    """Conic-section map of parameter k in [0, 1].

    k = 0 is the right half-plane, 0 < k < 1 a hyperbolic region,
    k = 1 the parabolic region Re w > |w - 1|.  The elliptic branch
    k > 1 is out of scope.
    """

    def __init__(self, k: float):
        super().__init__()
        k = float(k)
        if k < 0:
            raise ValueError("conic parameter must satisfy k >= 0")
        if k > 1:
            raise ValueError("elliptic branch unsupported")
        self.k = k

    def _eval(self, z: np.ndarray) -> np.ndarray:
        re, im = _ell(*_sqrt(z))
        if self.k == 1:
            # 1 + c (re^2 - im^2) and 2 c re im, with c = 2/pi^2.
            c = 2 / math.pi**2
            real = re * re
            re *= 2 * c
            re *= im
            im *= im
            real -= im
            real *= c
            real += 1
            return _pack(real, re)
        k2 = self.k * self.k
        a = 2 / math.pi * math.acos(self.k)
        re *= a
        im *= a
        # (cosh(re) cos(im) - k^2)/(1 - k^2) and sinh(re) sin(im)/(1 - k^2).
        cos, sin = _cis(im)
        cos *= np.cosh(re)
        cos -= k2
        cos /= 1 - k2
        sin *= np.sinh(re, out=_own(re))
        sin /= 1 - k2
        return _pack(cos, sin)

    def max_modulus(self, r: float) -> float:
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

    def spec_string(self) -> str:
        return f"kucv:k={_fmt_real(self.k)}"


_TINY = sys.float_info.min


def _sqrt(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the principal sqrt z, as new arrays.

    With t = sqrt((|x| + |z|)/2) for z = x + iy, sqrt z is (t, y/2t) if
    x >= 0, else (|y|/2t, copysign(t, y)).  t is 0 only at z = 0 or a
    subnormal z; flooring it at the least normal float keeps y/2t finite
    there, far below P's rounding.
    """
    x, y = z.real, z.imag
    t = np.abs(x)
    s = np.abs(z)
    t += s
    t /= 2
    t = np.sqrt(t, out=_own(t))
    s = np.maximum(t, _TINY, out=_own(s))
    s *= 2
    s = np.divide(y, s, out=_own(s))
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
    re = np.abs(p)
    q2 = q * q
    den = 1 - re
    den **= 2
    den += q2
    re *= 4
    re /= den
    re = np.log1p(re, out=_own(re))
    re *= 0.5
    re = np.copysign(re, p, out=_own(re))
    den = np.subtract(1, p, out=_own(den))
    im = 1 + p
    den *= im
    den -= q2
    im = np.multiply(q, 2, out=_own(im))
    return re, np.arctan2(im, den, out=_own(im))


def _cis(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos phi and sin phi for phi in (-pi, pi), from t = tan(phi/2).

    cos = (1 - t^2)/(1 + t^2) and sin = 2t/(1 + t^2), within 2.2e-16 of
    40-digit references on all of (-pi, pi), to within 1e-9 of its ends;
    the maps need only |phi| < pi/2.  sin is returned in phi's array,
    which the caller must own.
    """
    phi *= 0.5
    t = np.tan(phi, out=_own(phi))
    den = t * t
    cos = 1 - den
    den += 1
    cos /= den
    t += t
    t /= den
    return cos, t


def _own(x: np.ndarray) -> np.ndarray | None:
    """The out= of a ufunc that overwrites x, an array the kernel
    allocated; None for the numpy scalar a point runs on, which the call
    then replaces."""
    return x if isinstance(x, np.ndarray) else None


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

    Unknown kinds, missing parameters, and out-of-range values raise
    ValueError with a descriptive message.
    """
    kind = spec.kind
    params = dict(spec.params)

    def take(name: str, default=None):
        if name in params:
            return params.pop(name)
        if default is not None:
            return default
        raise ValueError(f"domain kind '{kind}' requires parameter '{name}'")

    if kind == "halfplane":
        dom: DomainMap = HalfPlane(alpha=_as_real(take("alpha", 0.0), "alpha"))
    elif kind == "sector":
        dom = Sector(beta=_as_real(take("beta"), "beta"))
    elif kind == "janowski":
        dom = Janowski(a=complex(take("A")), b=complex(take("B")))
    elif kind == "kucv":
        dom = ConicSection(k=_as_real(take("k"), "k"))
    else:
        raise ValueError(f"unknown domain kind '{kind}'")
    if params:
        extra = ", ".join(sorted(params))
        raise ValueError(f"unexpected parameter(s) for '{kind}': {extra}")
    return dom


def _as_real(v, name: str) -> float:
    v = complex(v)
    if v.imag != 0:
        raise ValueError(f"parameter '{name}' must be real")
    return v.real
