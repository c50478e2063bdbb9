"""The catalog maps P written out in mpmath, for high-precision references.

``mp_map(dom)`` returns w -> P(w) for an mpmath number w, from the closed
forms in the ``schurvar.domains`` docstring, so it shares no code with the
float64 kernels.  It works at the caller's precision: each caller sets its
own digits with ``mpmath.workdps``.
"""

import mpmath

from schurvar import ConicSection, HalfPlane, Janowski, Sector


def mp_map(dom):
    """P of the catalog map ``dom`` as a function of an mpmath number."""
    if isinstance(dom, HalfPlane):
        return lambda w: (1 + (1 - 2 * mpmath.mpf(dom.alpha)) * w) / (1 - w)
    if isinstance(dom, Janowski):
        return lambda w: (1 + mpmath.mpc(dom.A) * w) / (1 + mpmath.mpc(dom.B) * w)
    if isinstance(dom, Sector):
        return lambda w: ((1 + w) / (1 - w)) ** mpmath.mpf(dom.beta)
    assert isinstance(dom, ConicSection), dom
    k = mpmath.mpf(dom.k)

    def conic(w):
        ell = mpmath.log((1 + mpmath.sqrt(w)) / (1 - mpmath.sqrt(w)))
        if k == 1:
            return 1 + 2 / mpmath.pi**2 * ell**2
        return (mpmath.cosh(2 / mpmath.pi * mpmath.acos(k) * ell) - k**2) / (1 - k**2)

    return conic
