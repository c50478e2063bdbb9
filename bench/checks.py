"""Independent oracles for the benchmark's output gates.

Nothing here imports schurvar.  Domain maps, Moebius towers and the
tower integral are re-implemented with vectorized numpy, and the
integral is taken with a fixed Gauss-Legendre rule instead of the
library's adaptive Gauss-Kronrod scheme, so a gate built on these
functions never goes through the code path it checks.
"""

from __future__ import annotations

import numpy as np

# Fixed Gauss-Legendre rule on [0, 1].  The integrands are analytic on
# the open unit disk, so on a segment [0, z0] with |z0| <= 0.95 the rule
# converges at the Bernstein-ellipse rate (rho >= 1.5): 96 nodes leave an
# error far below 1e-13.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(96)
_GL_T = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


def domain_values(kind: str, params: dict, w: np.ndarray) -> np.ndarray:
    """The catalog map P(w), elementwise, with principal branches."""
    w = np.asarray(w, dtype=complex)
    if kind == "halfplane":
        a = params["alpha"]
        return (1 + (1 - 2 * a) * w) / (1 - w)
    if kind == "sector":
        return np.exp(params["beta"] * np.log((1 + w) / (1 - w)))
    if kind == "janowski":
        return (1 + params["A"] * w) / (1 + params["B"] * w)
    if kind == "kucv":
        k = params["k"]
        r = np.sqrt(w)
        ell = np.log((1 + r) / (1 - r))
        if k == 1:
            return 1 + (2 / np.pi**2) * ell * ell
        a = 2 / np.pi * np.arccos(k)
        return (np.cosh(a * ell) - k * k) / (1 - k * k)
    raise ValueError(f"unknown domain kind {kind!r}")


def domain_alphas(kind: str, params: dict) -> tuple[complex, complex]:
    """First two Taylor coefficients of P at 0, by a discrete Cauchy sum."""
    m = 64
    r = 0.25
    zs = r * np.exp(2j * np.pi * np.arange(m) / m)
    co = np.fft.fft(domain_values(kind, params, zs)) / m
    return complex(co[1] / r), complex(co[2] / r**2)


def tower_values(gamma, eps: np.ndarray, z: np.ndarray) -> np.ndarray:
    """omega(z) = s_g0(z s_g1(... z s_gn(eps z))), broadcast over eps and z."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(eps, dtype=complex) * z
    for i in range(len(gamma) - 1, -1, -1):
        a = complex(gamma[i])
        w = (w + a) / (1 + np.conj(a) * w)
        if i:
            w = z * w
    return w


def tower_integrals(kind, params, gamma, j, z0, eps) -> np.ndarray:
    """Q(z0, eps) = int_0^z0 zeta^j (P(omega(zeta)) - P(gamma_0)) d zeta.

    One Gauss-Legendre pass over every eps at once; ``eps`` is an array.
    """
    eps = np.asarray(eps, dtype=complex)[:, None]
    zeta = complex(z0) * _GL_T[None, :]
    base = domain_values(kind, params, np.asarray([complex(gamma[0])]))[0]
    f = zeta**j * (domain_values(kind, params, tower_values(gamma, eps, zeta)) - base)
    return complex(z0) * (f @ _GL_W)


def data_from_schur(gammas, length: int, radius: float = 0.9) -> np.ndarray:
    """First ``length`` Taylor coefficients of towers with leaf 0.

    ``gammas`` holds one parameter vector per row; so does the result.
    The coefficients come from one FFT of samples on |z| = radius.  For
    |gamma| < 1 the tower is a Schur function, so every coefficient is at
    most 1 and aliasing adds at most radius^512 (1e-23 at 0.9), while
    rounding grows by radius^-k (30 at k = 32).  With a parameter of
    modulus > 1 (exterior data) the map is analytic only near 0: take a
    small radius and only the first few coefficients.
    """
    m = 512
    zs = radius * np.exp(2j * np.pi * np.arange(m) / m)
    rows = np.atleast_2d(np.asarray(gammas, dtype=complex))
    w = np.zeros((len(rows), m), dtype=complex)
    for i in range(rows.shape[1] - 1, -1, -1):
        a = rows[:, i : i + 1]
        w = (w + a) / (1 + np.conj(a) * w)
        if i:
            w = zs * w
    co = np.fft.fft(w, axis=1)[:, :length] / m
    return co / radius ** np.arange(length)


def toeplitz_norm(data) -> float:
    """Spectral norm of the lower-triangular Toeplitz matrix of the data."""
    c = np.asarray(data, dtype=complex)
    n = len(c)
    t = np.zeros((n, n), dtype=complex)
    for i in range(n):
        t[i:, i] = c[: n - i]
    return float(np.linalg.svd(t, compute_uv=False)[0])


def max_rel_error(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
