"""Rule construction, cumulative-hazard evaluation, and the error bound."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quadsurv.errors import InvalidOrderError
from quadsurv.quadrature import _legendre_eval, build_rule, error_bound

EPS = np.finfo(np.float64).eps


def cumhaz(rule, hazard_at, t):
    """float64 ``rule.cumhaz`` at the times ``t``, from the hazard at their
    ``points`` laid out node-first, as the loss does."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    nodes = rule.points(t)[..., 1:]
    hazards = np.broadcast_to(hazard_at(nodes), nodes.shape)
    return rule.cumhaz(np.moveaxis(hazards, -1, 0).copy(), t)


# --- independent oracles -------------------------------------------------------

def p5(x):
    return (63 * x**5 - 70 * x**3 + 15 * x) / 8


def p5_prime(x):
    return (315 * x**4 - 210 * x**2 + 15) / 8


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def oracle_rule_5():
    """Bisection root finder on the explicit degree-5 polynomial."""
    # brackets from the Chebyshev angles, padded
    brackets = [(-0.95, -0.85), (-0.6, -0.45), (-0.1, 0.1), (0.45, 0.6), (0.85, 0.95)]
    nodes = [bisect_root(p5, lo, hi) for lo, hi in brackets]
    weights = [2.0 / ((1 - x * x) * p5_prime(x) ** 2) for x in nodes]
    return np.array(nodes), np.array(weights)


# --- build_rule ------------------------------------------------------------------

def test_k1_analytic():
    rule = build_rule(1)
    assert rule.canonical_nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]
    assert rule.unit_nodes.tolist() == [0.5]


def test_k2_analytic():
    rule = build_rule(2)
    root = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(rule.canonical_nodes, [-root, root], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_k5_matches_bisection_oracle():
    rule = build_rule(5)
    nodes, weights = oracle_rule_5()
    np.testing.assert_allclose(rule.canonical_nodes, nodes, atol=1e-12)
    np.testing.assert_allclose(rule.weights, weights, atol=1e-12)
    # frozen reference values for the positive half
    np.testing.assert_allclose(
        rule.canonical_nodes[3:], [0.5384693101056831, 0.9061798459386640], atol=1e-12)
    np.testing.assert_allclose(
        rule.weights[2:], [0.5688888888888889, 0.4786286704993665,
                           0.2369268850561891], atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 16, 33, 64])
def test_rule_invariants(k):
    rule = build_rule(k)
    xi, w = rule.canonical_nodes, rule.weights
    assert abs(w.sum() - 2.0) < 1e-12
    assert np.all(np.diff(xi) > 0)
    assert np.all((xi > -1) & (xi < 1))
    assert np.all(w > 0)
    # roots of P_K
    for x in xi:
        p, _ = _legendre_eval(k, x)
        assert abs(p) < 1e-12
    # symmetry about zero
    np.testing.assert_allclose(xi, -xi[::-1], atol=1e-12)
    # weight formula
    for x, weight in zip(xi, w):
        _, dp = _legendre_eval(k, x)
        assert abs(weight - 2.0 / ((1 - x * x) * dp * dp)) < 1e-12
    # unit nodes are the affine image
    np.testing.assert_allclose(rule.unit_nodes, (xi + 1) / 2, atol=1e-15)


def test_rule_is_cached_and_deterministic():
    assert build_rule(7) is build_rule(7)
    a = build_rule(9)
    build_rule.cache_clear()
    b = build_rule(9)
    assert np.array_equal(a.canonical_nodes, b.canonical_nodes)
    assert np.array_equal(a.weights, b.weights)


def test_rule_arrays_immutable():
    rule = build_rule(4)
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


@pytest.mark.parametrize("bad", [0, -1, 65, 1000])
def test_invalid_order_rejected(bad):
    with pytest.raises(InvalidOrderError):
        build_rule(bad)


# --- _legendre_eval ---------------------------------------------------------------

def test_legendre_trivial_cases():
    assert _legendre_eval(0, 0.7) == (1.0, 0.0)
    p, dp = _legendre_eval(2, 0.5)
    assert abs(p - (-0.125)) < 1e-15
    assert abs(dp - 1.5) < 1e-15


def test_legendre_endpoints_exact():
    for k in range(1, 20):
        p, _ = _legendre_eval(k, 1.0)
        assert p == 1.0
        p, _ = _legendre_eval(k, -1.0)
        assert p == (-1.0) ** k


def test_legendre_degree6_vs_monomial_expansion():
    # P_6(x) = (231 x^6 - 315 x^4 + 105 x^2 - 5) / 16, exact in rationals
    x = Fraction(3, 10)
    exact = (231 * x**6 - 315 * x**4 + 105 * x**2 - 5) / 16
    exact_dp = (6 * 231 * x**5 - 4 * 315 * x**3 + 2 * 105 * x) / 16
    p, dp = _legendre_eval(6, 0.3)
    assert abs(p - float(exact)) < 1e-14
    assert abs(dp - float(exact_dp)) < 1e-13


# --- cumhaz --------------------------------------------------------------------

def test_constant_hazard():
    for k in (1, 2, 5, 10):
        rule = build_rule(k)
        assert abs(cumhaz(rule, lambda s: 3.0, 2.0)[0] - 6.0) < 1e-12


def test_zero_time_is_exact_zero():
    rule = build_rule(4)
    assert cumhaz(rule, lambda s: 1e300, 0.0)[0] == 0.0


def test_cubic_exact_at_k2():
    rule = build_rule(2)
    # degree 3 = 2K - 1, so the rule integrates s^3 exactly: t^4 / 4
    assert abs(cumhaz(rule, lambda s: s**3, 1.0)[0] - 0.25) < 1e-15


def test_exponential_hazard_within_bound():
    rule = build_rule(3)
    val = cumhaz(rule, np.exp, 1.0)[0]
    err = abs(val - (math.e - 1.0))
    assert err <= error_bound(rule, 1.0, math.e)
    assert err < 2e-6


def test_polynomial_exactness_property(longdouble_cumhaz):
    # the longdouble oracle is exact to 1e-10 up to t^16 / 16 at t = 3, about
    # 2.7e6; float64 cumhaz is within round-off of a sum of K terms there
    t = np.array([0.5, 1.0, 3.0])
    for k in range(1, 9):
        rule = build_rule(k)
        for d in range(0, 2 * k):
            exact = t ** (d + 1) / (d + 1)
            approx = cumhaz(rule, lambda s, d=d: s**d, t)
            assert np.all(np.abs(approx - exact) < 1e-10 + 8 * EPS * exact), (k, d)
            for ti, ex in zip(t, exact):
                oracle = float(longdouble_cumhaz(k, lambda s, d=d: s**d, ti))
                assert abs(oracle - ex) < 1e-10, (k, d, ti)


def test_bound_validity_for_exponential(longdouble_cumhaz):
    # the bound certifies truncation error, so measure it above float64
    # round-off: the longdouble oracle keeps the comparison clean even where
    # the bound is below one ulp of the result
    for k in (2, 3, 4, 5):
        for t in (0.5, 1.0, 2.0):
            approx = longdouble_cumhaz(k, np.exp, t)
            exact = np.expm1(np.longdouble(t))
            assert abs(float(approx - exact)) <= error_bound(build_rule(k), t, math.exp(t)), (k, t)


def test_cumhaz_within_bound_for_exponential(longdouble_cumhaz):
    """The loss's float64 ``cumhaz`` is within a few ulp of the longdouble
    oracle, and within the truncation bound plus a few eps Lambda of round-off:
    at K = 5, t = 0.5 the bound (3.2e-16) is below one ulp of Lambda."""
    t = np.array([0.5, 1.0, 2.0])
    exact = np.expm1(t)
    for k in (2, 3, 4, 5):
        rule = build_rule(k)
        approx = cumhaz(rule, np.exp, t)
        oracle = np.array([float(longdouble_cumhaz(k, np.exp, ti)) for ti in t])
        assert np.all(np.abs(approx - oracle) <= 4 * np.spacing(oracle)), k
        bound = [error_bound(rule, ti, math.exp(ti)) for ti in t]
        assert np.all(np.abs(approx - exact) <= bound + 4 * EPS * exact), k


@pytest.mark.parametrize("k, grid", [(2, np.linspace(0.5, 4.0, 8)),
                                     (3, np.linspace(0.25, 3.0, 12)),
                                     (5, np.linspace(0.5, 4.0, 8))])
def test_composite_within_bound_for_exponential(k, grid):
    """The curves' float64 Lambda from ``composite``, summed per interval and
    then along the grid as ``HazardModel.curves`` sums it, is within the sum of
    the intervals' truncation bounds (m nodes on width h_j, the 2m-th
    derivative of exp at most e^{g_j}) plus 8 eps Lambda of round-off.  At
    larger K the bound falls below round-off and tests nothing."""
    times, weights, edges = build_rule(k).composite(grid)
    cum = np.cumsum(np.add.reduceat(weights * np.exp(times), edges[:-1]))
    width = np.diff(grid, prepend=0.0)
    bound = np.cumsum([error_bound(build_rule(int(m)), h, math.exp(g))
                       for m, h, g in zip(np.diff(edges), width, grid)])
    assert np.all(np.abs(cum - np.expm1(grid)) <= bound + 8 * EPS * cum)


def test_monotone_convergence_on_sinusoid():
    # anti-phase oscillating hazard from the node study, x = 0 group
    def lam(s):
        return 1.0 + 0.8 * np.sin(4.0 * s)

    t = 2.0
    exact = t + 0.2 * (1.0 - np.cos(4.0 * t))
    errors = [abs(cumhaz(build_rule(k), lam, t)[0] - exact)
              for k in (3, 5, 7, 10)]
    assert all(e1 >= e2 for e1, e2 in zip(errors, errors[1:]))


def test_scale_covariance():
    rule = build_rule(6)
    base = cumhaz(rule, lambda s: np.sin(s) + 1.5, 2.5)[0]
    scaled = cumhaz(rule, lambda s: 7.25 * (np.sin(s) + 1.5), 2.5)[0]
    assert abs(scaled - 7.25 * base) < 1e-12 * abs(scaled)


# --- error_bound -------------------------------------------------------------------

def test_bound_zero_cases():
    rule = build_rule(1)
    assert error_bound(rule, 1.0, 0.0) == 0.0
    assert error_bound(rule, 0.0, 5.0) == 0.0


def test_bound_k3_exact_fraction():
    # t = 1: coefficient is (3!)^4 / (7 * (6!)^3), times deriv_max = e
    coeff = Fraction(math.factorial(3) ** 4,
                     7 * math.factorial(6) ** 3)
    rule = build_rule(3)
    expected = float(coeff) * math.e
    assert abs(error_bound(rule, 1.0, math.e) - expected) < 1e-18


def test_bound_k2_t2_exact_fraction():
    # 2^5 * (2!)^4 / (5 * (4!)^3) = 512 / 69120
    expected = float(Fraction(512, 69120))
    rule = build_rule(2)
    assert abs(error_bound(rule, 2.0, 1.0) - expected) < 1e-15


def test_bound_no_overflow_at_k64():
    rule = build_rule(64)
    b = error_bound(rule, 2.0, 1e6)
    assert b >= 0.0
    assert math.isfinite(b)
    # log-space check against lgamma arithmetic
    k = 64
    log_expected = (129 * math.log(2.0) + 4 * math.lgamma(65) - math.log(129)
                    - 3 * math.lgamma(129) + math.log(1e6))
    assert abs(math.log(b) - log_expected) < 1e-9


def test_rule_json_dump_schema():
    rule = build_rule(3)
    d = rule.as_dict()
    assert set(d) == {"K", "nodes", "weights"}
    assert d["K"] == 3
    assert len(d["nodes"]) == len(d["weights"]) == 3


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 15, 16, 17, 64])
def test_cumhaz_and_points_layout(k):
    """``points`` lays out t, then t tau_k.  ``cumhaz`` of node-first hazards
    is (t/2) times numpy's own row sum of w_k lambda_k, bit for bit, on a
    node-first and a node-major buffer and for one time at a time; it is
    infinite where a hazard is."""
    rule = build_rule(k)
    rng = np.random.default_rng(k)
    t = rng.uniform(0.1, 5.0, size=6)
    points = rule.points(t)
    assert points.shape == (6, k + 1)
    assert np.array_equal(points[:, 0], t)
    assert np.array_equal(points[:, 1:], np.outer(t, rule.unit_nodes))
    hazards = np.exp(rng.normal(0.0, 3.0, size=(40, 6, k)))
    hazards[0, 0, 0] = math.inf
    expected = (t / 2.0) * (hazards * rule.weights).sum(axis=-1)
    node_first = np.moveaxis(hazards, -1, 0).copy()
    node_major = hazards.transpose(0, 2, 1).copy().transpose(1, 0, 2)
    assert np.array_equal(rule.cumhaz(node_first, t), expected)
    assert np.array_equal(rule.cumhaz(node_major, t), expected)
    for i in (1, 39):
        one = [rule.cumhaz(hazards[i, j][:, None].copy(), t[j:j + 1])[0] for j in range(6)]
        assert np.array_equal(one, expected[i])
    assert math.isinf(expected[0, 0])


@pytest.mark.parametrize("k", [1, 3, 4, 9, 15, 64])
def test_composite_layout_and_exactness(k):
    """Each interval [g_{j-1}, g_j] (g_{-1} = 0) holds its nodes, m = min(K, 4)
    of them where m g_j >= K h_j and K elsewhere, with weights summing to its
    width; the cumulative sums integrate a polynomial of degree 2m - 1
    exactly, and no grid gets more than K nodes per point."""
    rule = build_rule(k)
    m = min(k, 4)
    grid = np.array([0.0, 0.0, 0.3, 0.3, 0.4, 1.1, 2.4, 2.5, 2.6, 2.7, 2.8])
    times, weights, edges = rule.composite(grid)
    counts = np.diff(edges)
    lower = np.concatenate([[0.0], grid[:-1]])
    width = grid - lower
    assert np.array_equal(counts, np.where(m * grid >= k * width, m, k))
    assert edges[0] == 0 and edges[-1] == len(times) == len(weights) <= k * len(grid)
    for j in range(len(grid)):
        piece = slice(edges[j], edges[j + 1])
        assert np.all((times[piece] >= lower[j]) & (times[piece] <= grid[j]))
        assert math.isclose(weights[piece].sum(), width[j], rel_tol=1e-14, abs_tol=0.0)
    coeffs = np.random.default_rng(k).normal(size=2 * m)
    poly = np.polynomial.Polynomial(coeffs)
    pieces = np.add.reduceat(weights * poly(times), edges[:-1])
    exact = poly.integ()(grid)
    np.testing.assert_allclose(np.cumsum(pieces), exact, rtol=1e-13, atol=1e-14)
    assert np.array_equal(rule.composite([5.0])[2], [0, k])
