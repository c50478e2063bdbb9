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

Taylor coefficients are closed-form (geometric/binomial series) except
for the conic map, whose coefficients are extracted numerically from
samples on a circle |z| = r, r = 1/2 up to order 9 and growing with
the order beyond.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

from ._lazy import np
from .series import ComplexSeries, series_mul

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
        raise NotImplementedError

    @property
    def alpha2(self) -> complex:
        raise NotImplementedError

    def eval(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """P(z) at a point, or elementwise on an array, of the open disk."""
        if not np.all(np.abs(z) < 1):
            raise ValueError("domain map argument must satisfy |z| < 1")
        w = self._eval(np.asarray(z, dtype=complex))
        return w if np.ndim(z) else complex(w)

    def _eval(self, z: np.ndarray) -> np.ndarray:
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

    @property
    def alpha1(self) -> complex:
        return complex(2 * (1 - self.alpha))

    @property
    def alpha2(self) -> complex:
        return complex(2 * (1 - self.alpha))

    def _eval(self, z: np.ndarray) -> np.ndarray:
        return (1 + (1 - 2 * self.alpha) * z) / (1 - z)

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

    @property
    def alpha1(self) -> complex:
        return complex(2 * self.beta)

    @property
    def alpha2(self) -> complex:
        return complex(2 * self.beta * self.beta)

    def _eval(self, z: np.ndarray) -> np.ndarray:
        re, im = _ell(z.real, z.imag)
        m = np.exp(self.beta * re)
        im *= self.beta
        return _pack(m * np.cos(im), m * np.sin(im))

    def _taylor(self, order: int) -> ComplexSeries:
        # (1+z)^b * (1-z)^{-b}: product of two binomial series.
        b = self.beta
        up = [1 + 0j]
        down = [1 + 0j]
        for i in range(1, order + 1):
            up.append(up[-1] * (b - i + 1) / i)
            down.append(down[-1] * (b + i - 1) / i)
        return series_mul(ComplexSeries(tuple(up)), ComplexSeries(tuple(down)))

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

    @property
    def alpha1(self) -> complex:
        return self.A - self.B

    @property
    def alpha2(self) -> complex:
        return -self.B * (self.A - self.B)

    def _eval(self, z: np.ndarray) -> np.ndarray:
        return (1 + self.A * z) / (1 + self.B * z)

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

    @property
    def alpha1(self) -> complex:
        if self.k == 1:
            return complex(8 / math.pi**2)
        a = 2 / math.pi * math.acos(self.k)
        return complex(2 * a * a / (1 - self.k * self.k))

    @property
    def alpha2(self) -> complex:
        # No closed form here; read off the memoized series.
        return self.taylor(2).coeffs[2]

    def _eval(self, z: np.ndarray) -> np.ndarray:
        # ell at the principal sqrt z = p + iq, with t = sqrt((|x| + |z|)/2)
        # for z = x + iy: (t, y/2t) if x >= 0, else (|y|/2t, copysign(t, y)).
        # t is 0 only at z = 0 or a subnormal z; flooring it at the least
        # normal float keeps y/2t finite there, far below P's rounding.
        x, y = z.real, z.imag
        t = np.sqrt((np.abs(x) + np.abs(z)) / 2)
        s = y / (2 * np.maximum(t, _TINY))
        right = x >= 0
        p = np.where(right, t, np.abs(s))
        re, im = _ell(p, np.where(right, s, np.copysign(t, y)))
        if self.k == 1:
            c = 2 / math.pi**2
            return _pack(1 + c * (re * re - im * im), 2 * c * re * im)
        k2 = self.k * self.k
        a = 2 / math.pi * math.acos(self.k)
        re *= a
        im *= a
        return _pack(
            (np.cosh(re) * np.cos(im) - k2) / (1 - k2),
            np.sinh(re) * np.sin(im) / (1 - k2),
        )

    def _taylor(self, order: int) -> ComplexSeries:
        # Discrete Cauchy coefficients from samples on |z| = r, doubling
        # the sample count until the requested coefficients move by no
        # more than 1e-12.  Dividing by r^p amplifies rounding by up to
        # r^-order, so r grows with the order to keep that factor at
        # most 1e3; orders up to 9 keep r = 1/2.
        r = max(0.5, 1e-3 ** (1 / max(order, 1)))
        prev = np.inf
        change = math.inf
        m = max(6, (order + 1).bit_length() + 2)
        while m <= 16:
            count = 2**m
            zs = r * np.exp(2j * np.pi * np.arange(count) / count)
            co = np.fft.fft(self._eval(zs))[: order + 1] / count
            co /= r ** np.arange(order + 1)
            change = float(np.max(np.abs(co - prev)))
            if change <= 1e-12:
                return ComplexSeries(tuple(co))
            prev = co
            m += 1
        raise ValueError(
            f"{self.spec_string()} Taylor extraction to order {order} did not "
            f"converge at 2^16 samples on |z| = {r:.4g} (last change "
            f"{change:.3e}, needs <= 1e-12)"
        )

    def spec_string(self) -> str:
        return f"kucv:k={_fmt_real(self.k)}"


_TINY = sys.float_info.min


def _ell(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of log((1+x)/(1-x)) = 2 artanh x, x = p + iq.

    For |x| < 1, Re = sign(p) log1p(4|p| / ((1-|p|)^2 + q^2)) / 2 and
    Im = atan2(2q, (1-p)(1+p) - q^2) (Kahan, "Branch cuts for complex
    elementary functions", 1987).  Re is odd in p; taking |p| keeps the
    log1p argument >= 0, where the plain log1p(4p/((1-p)^2 + q^2))
    cancels as x -> -1.  The denominator is >= (1 - |x|)^2 > 0.
    """
    ap = np.abs(p)
    q2 = q * q
    re = np.copysign(0.5 * np.log1p(4 * ap / ((1 - ap) ** 2 + q2)), p)
    return re, np.arctan2(2 * q, (1 - p) * (1 + p) - q2)


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
