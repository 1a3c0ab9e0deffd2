"""Reference oracles shared by the test modules."""

import numpy as np
import pytest

from quadsurv.quadrature import _legendre_eval, build_rule


def _longdouble_cumhaz(k, hazard_at, t):
    """(t/2) sum_k w_k hazard(t tau_k) of the K-point rule, all in longdouble.

    ``build_rule``'s float64 nodes are refined by Newton steps on the
    longdouble Legendre recurrence, and the weights are computed from the
    refined nodes.  ``hazard_at`` gets a longdouble array of node times, so
    numpy ufuncs keep the extra precision.
    """
    x = build_rule(k).canonical_nodes.astype(np.longdouble)
    for _ in range(3):
        p, dp = _legendre_eval(k, x)
        x = x - p / dp
    _, dp = _legendre_eval(k, x)
    t = np.longdouble(t)
    return t / 2 * np.sum(2 / ((1 - x * x) * dp * dp) * hazard_at(t * (x + 1) / 2))


@pytest.fixture
def longdouble_cumhaz():
    return _longdouble_cumhaz
