"""Truncated complex power-series arithmetic.

A series is a finite coefficient vector (c_0, ..., c_N) standing for
c_0 + c_1 z + ... + c_N z^N + O(z^{N+1}).  Every binary operation
truncates its result to the smaller order of the two operands, so a
computation carried out at a fixed working order stays at that order.
Operations never mutate their inputs.

These are the building blocks behind the Blaschke-tower Taylor
expansion and the extremal-coefficient pipeline.  Products are numpy
convolutions, composition is Horner's rule on one numpy array, the
reciprocal is Newton's iteration (Brent & Kung 1978), and exp takes one
numpy dot per coefficient.  schur expands a whole tower as one quotient
num/den and finishes it with one reciprocal and one product.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import _EXPORTS
from ._lazy import np

__all__ = list(_EXPORTS["series"])


@dataclass(frozen=True)
class ComplexSeries:
    """Coefficients of a truncated power series, indexed by power.

    ``coeffs[p]`` is the coefficient of z^p; the order of the series is
    ``len(coeffs) - 1``.  At least one coefficient is required.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(map(complex, self.coeffs)))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, p: int) -> complex:
        return self.coeffs[p]

    def __iter__(self):
        return iter(self.coeffs)


def series_mul(a: ComplexSeries, b: ComplexSeries) -> ComplexSeries:
    """Cauchy product truncated to the smaller order of the operands."""
    n = min(a.order, b.order)
    out = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1]
    return ComplexSeries(tuple(out.tolist()))


def series_reciprocal(a: ComplexSeries) -> ComplexSeries:
    """Multiplicative inverse 1/a as a truncated series.

    Newton's iteration b <- b (2 - a b) from b = 1/a_0: when a b = 1 +
    O(z^m), one step fixes coefficients m..2m-1 with two numpy
    convolutions (Brent & Kung 1978), so order N takes log2(N) steps.

    Raises
    ------
    ValueError
        If the constant coefficient vanishes ("non-invertible series").
    """
    if a.coeffs[0] == 0:
        raise ValueError("non-invertible series")
    c = np.asarray(a.coeffs)
    b = np.array([1.0 / c[0]])
    while len(b) < len(c):
        m = len(b)
        k = min(2 * m, len(c))
        err = np.convolve(c[:k], b)[m:k]
        b = np.concatenate((b, -np.convolve(b, err)[: k - m]))
    return ComplexSeries(tuple(b.tolist()))


def series_compose(outer: ComplexSeries, inner: ComplexSeries) -> ComplexSeries:
    """outer(inner(z)) truncated to the smaller order of the operands.

    Evaluated by Horner's rule on one numpy array; each step is a
    convolution with inner, cut to the terms that reach the result.
    The truncation is only valid when inner has no constant term (then
    the discarded outer coefficients contribute O(z^{order+1})), so
    that is a hard precondition.

    Raises
    ------
    ValueError
        If ``inner[0] != 0`` ("composition requires inner(0)=0").
    """
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires inner(0)=0")
    n = min(outer.order, inner.order)
    w = np.asarray(inner.coeffs[: n + 1])
    # acc is multiplied by inner^k later, so only n + 1 - k terms count.
    acc = np.asarray(outer.coeffs[n : n + 1])
    for k in range(n - 1, -1, -1):
        acc = np.convolve(acc, w[: n + 1 - k])[: n + 1 - k]
        acc[0] += outer.coeffs[k]
    return ComplexSeries(tuple(acc.tolist()))


def series_exp(a: ComplexSeries) -> ComplexSeries:
    """exp(a) via the termwise ODE recurrence E' = a' E.

    p E_p = sum_{l=1..p} l a_l E_{p-l}, seeded with E_0 = exp(a_0);
    each step is one numpy dot against the coefficients found so far.
    """
    la = np.arange(len(a)) * np.asarray(a.coeffs)
    out = np.empty(len(a), dtype=complex)
    out[0] = cmath.exp(a.coeffs[0])
    for p in range(1, len(a)):
        out[p] = np.dot(la[1 : p + 1], out[p - 1 :: -1]) / p
    return ComplexSeries(tuple(out.tolist()))
