"""Gauss-Legendre rules and cumulative-hazard evaluation.

A K-point rule integrates the hazard over a subject-specific interval [0, t]
by mapping the canonical nodes to (0, 1) and scaling by t/2; this defines
the training loss.  Dense curves over a shared ascending grid use the
cumulative composite rule of ``QuadratureRule.composite`` instead: one rule
per grid interval, summed along the grid (Davis & Rabinowitz, *Methods of
Numerical Integration*, 2nd ed., 1984, ch. 2).  Rule construction
uses Newton iteration on the Legendre recurrence in extended precision
(numpy longdouble), which nothing else here uses: nodes and weights leave
``build_rule`` as float64, and ``cumhaz`` and ``composite`` evaluate in
float64.  The tests hold both to the truncation bound ``error_bound``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InvalidOrderError

MAX_ORDER = 64
# nodes on a narrow interval of ``QuadratureRule.composite``: order 3 was
# about a thousand times less exact on fitted film and lora hazards (README)
COMPOSITE_ORDER = 4

_LD = np.longdouble


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a K-point Gauss-Legendre rule.

    ``canonical_nodes`` are the roots of the K-th Legendre polynomial in
    ascending order, ``unit_nodes`` their images under x -> (x + 1) / 2,
    and ``weights`` the standard weights summing to 2, all float64.
    """

    order: int
    canonical_nodes: np.ndarray
    unit_nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for arr in (self.canonical_nodes, self.unit_nodes, self.weights):
            arr.setflags(write=False)

    def as_dict(self) -> dict:
        return {
            "K": self.order,
            "nodes": [float(x) for x in self.canonical_nodes],
            "weights": [float(w) for w in self.weights],
        }

    def points(self, t) -> np.ndarray:
        """(..., K+1) times for times ``t`` of any shape: t, then t tau_k."""
        t = np.asarray(t, dtype=np.float64)[..., None]
        return np.concatenate([t, t * self.unit_nodes], axis=-1)

    def cumhaz(self, hazards, t) -> np.ndarray:
        """(t/2) sum_k w_k lambda_k from the (*t.shape, K) hazards at the node
        times of ``points(t)``, one row sum per time."""
        half_t = np.asarray(t, dtype=np.float64) / 2.0
        return half_t * (hazards * self.weights).sum(axis=-1)

    def composite(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Node times, weights and interval edges of the cumulative composite
        rule on the ascending, nonnegative ``grid`` g_0 <= ... <= g_{G-1}.

        Interval j is [g_{j-1}, g_j], with g_{-1} = 0 and width h_j.  It gets
        the m-point rule, m = min(K, ``COMPOSITE_ORDER``), where
        m g_j >= K h_j: there m nodes are at least as dense as this K-point
        rule's over [0, g_j].  Elsewhere it gets this K-point rule: on a wide
        [0, g_0], on the first intervals of a grid that starts near 0 and on
        every interval of a sparse grid.  So no grid has more than G K nodes.

        Interval j's nodes are ``edges[j]:edges[j+1]`` of the node times
        g_{j-1} + h_j tau and weights (h_j / 2) w.  The weighted hazards
        summed per interval (``np.add.reduceat`` at ``edges[:-1]``) and then
        cumulatively along the grid give Lambda(g_j), which is therefore
        non-decreasing in j.
        """
        grid = np.asarray(grid, dtype=np.float64)
        low = build_rule(min(self.order, COMPOSITE_ORDER))
        lower = np.concatenate([[0.0], grid[:-1]])
        width = grid - lower
        full = low.order * grid < self.order * width
        counts = np.where(full, self.order, low.order)
        edges = np.concatenate([[0], np.cumsum(counts)])
        # each node's interval, and its index in the two rules' node lists
        # laid end to end (the m-point rule first)
        interval = np.repeat(np.arange(len(grid)), counts)
        index = (np.arange(edges[-1]) - edges[interval]
                 + np.where(full, low.order, 0)[interval])
        unit = np.concatenate([low.unit_nodes, self.unit_nodes])[index]
        w = np.concatenate([low.weights, self.weights])[index]
        times = lower[interval] + width[interval] * unit
        return times, width[interval] / 2.0 * w, edges


def _legendre_eval(k: int, x: float) -> tuple[float, float]:
    """Value and derivative of the k-th Legendre polynomial at x, k >= 0.

    Uses the three-term recurrence together with the derivative
    recurrence P'_n = P'_{n-2} + (2n - 1) P_{n-1}, from P_{-1} = 0, which
    stays finite at the interval endpoints.  Computes in the precision of
    ``x``, so a longdouble ``x`` gives longdouble results.
    """
    p_prev, p = 0.0, 1.0
    dp_prev, dp = 0.0, 0.0
    for n in range(1, k + 1):
        p_next = ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
        dp_next = dp_prev + (2 * n - 1) * p
        p_prev, p = p, p_next
        dp_prev, dp = dp, dp_next
    return p, dp


@functools.lru_cache(maxsize=None)
def build_rule(k: int) -> QuadratureRule:
    """Construct (and cache) the K-point rule.

    Roots are found by Newton iteration seeded with the Chebyshev-angle
    approximation cos(pi (j - 1/4) / (K + 1/2)); each positive root is
    mirrored to its negative partner so the node set is exactly symmetric.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidOrderError(f"quadrature order must be an integer, got {k!r}")
    if k < 1 or k > MAX_ORDER:
        raise InvalidOrderError(f"quadrature order must be in [1, {MAX_ORDER}], got {k}")

    nodes = np.empty(k, dtype=_LD)
    weights = np.empty(k, dtype=_LD)
    for j in range(k // 2):
        # seed for the (j+1)-th largest root
        x = _LD(math.cos(math.pi * (j + 0.75) / (k + 0.5)))
        for _ in range(100):
            p, dp = _legendre_eval(k, x)
            delta = -p / dp
            x = x + delta
            if abs(float(delta)) < 1e-18:
                break
        _, dp = _legendre_eval(k, x)
        w = 2 / ((1 - x * x) * dp * dp)
        nodes[k - 1 - j] = x
        nodes[j] = -x
        weights[j] = w
        weights[k - 1 - j] = w
    if k % 2 == 1:
        mid = k // 2
        nodes[mid] = _LD(0.0)
        _, dp = _legendre_eval(k, _LD(0.0))
        weights[mid] = 2 / (dp * dp)

    return QuadratureRule(
        order=int(k),
        canonical_nodes=nodes.astype(np.float64),
        unit_nodes=((nodes + 1) / 2).astype(np.float64),
        weights=weights.astype(np.float64),
    )


def error_bound(rule: QuadratureRule, t: float, deriv_max: float) -> float:
    """Certified truncation bound t^(2K+1) (K!)^4 / ((2K+1) ((2K)!)^3) * deriv_max.

    ``deriv_max`` bounds the 2K-th time derivative of the hazard on [0, t].
    Evaluated through log-gamma so the factorial ratio neither overflows
    nor underflows for any supported order.
    """
    if not math.isfinite(t) or t < 0:
        raise ContractError(f"time must be finite and nonnegative, got {t}")
    if deriv_max < 0:
        raise ContractError(f"derivative bound must be nonnegative, got {deriv_max}")
    if t == 0.0 or deriv_max == 0.0:
        return 0.0
    k = rule.order
    log_coeff = ((2 * k + 1) * math.log(t)
                 + 4 * math.lgamma(k + 1)
                 - math.log(2 * k + 1)
                 - 3 * math.lgamma(2 * k + 1))
    return math.exp(log_coeff + math.log(deriv_max))
