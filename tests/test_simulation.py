"""Generators vs closed forms: samplers, censoring calibration, L1 metrics."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quadsurv.errors import UsageError
from quadsurv.metrics import kaplan_meier
from quadsurv.simulation import (COEFFICIENTS, FAMILIES, TABLE, GeneratorSpec,
                                 calibrate_censoring, evaluation_grid, generate,
                                 l1_error, make_truth, marginalized_curves,
                                 poly_link, sample_event_times)


def km_sup_distance(draws, surv_fn, lo_q=0.025, hi_q=0.975):
    """Sup-norm distance between the KM curve of uncensored draws and a
    closed-form survival function over the central quantile range."""
    km = kaplan_meier(draws, np.ones(len(draws), dtype=int))
    lo, hi = np.quantile(draws, [lo_q, hi_q])
    mask = (km.times >= lo) & (km.times <= hi)
    return float(np.max(np.abs(km.values[mask] - surv_fn(km.times[mask]))))


# --- truth self-consistency -------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
def test_truth_self_consistency(family):
    # hazard must equal -d/dt log S, checked by central differences
    truth = make_truth(family)
    xs = np.array([0.0, 1.0]) if family.startswith("scenario") \
        else np.array([-0.8, 0.0, 0.7])
    grid = np.linspace(0.1, 2.5, 25)
    step = 1e-5
    for x in xs:
        lam = truth.lam(grid, x)
        num = (np.log(truth.surv(grid - step, x))
               - np.log(truth.surv(grid + step, x))) / (2 * step)
        np.testing.assert_allclose(num, lam, atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(truth.surv(grid, x),
                                   np.exp(-truth.cumhaz(grid, x)), atol=1e-12)


@pytest.mark.slow
@pytest.mark.parametrize("family", FAMILIES)
def test_sampler_matches_closed_form_km(family):
    spec = GeneratorSpec(family=family)
    truth = make_truth(family)
    rng = np.random.default_rng(42)
    x0 = 0.0
    draws = sample_event_times(spec, np.zeros(100_000), rng)
    assert km_sup_distance(draws, lambda t: truth.surv(t, x0)) < 0.01


def test_exponential_rate_at_zero_covariate():
    spec = GeneratorSpec(family="exponential")
    rng = np.random.default_rng(0)
    draws = sample_event_times(spec, np.zeros(100_000), rng)
    # rate e^{-1} so the mean is e
    assert abs(draws.mean() - math.e) / math.e < 0.02


def test_lognormal_log_mean():
    spec = GeneratorSpec(family="lognormal")
    rng = np.random.default_rng(1)
    n = 100_000
    draws = sample_event_times(spec, np.zeros(n), rng)
    sigma = math.exp(-0.1)
    assert abs(np.log(draws).mean() - 1.5) < 3 * sigma / math.sqrt(n)


def test_scenario1_unit_exponential_group():
    spec = GeneratorSpec(family="scenario1")
    rng = np.random.default_rng(7)
    draws = sample_event_times(spec, np.zeros(100_000), rng)
    assert km_sup_distance(draws, lambda t: np.exp(-t)) < 0.01


def test_scenario2_inversion_accuracy():
    truth = make_truth("scenario2")
    spec = GeneratorSpec(family="scenario2")
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 2, size=500).astype(float)
    ts = sample_event_times(spec, xs, rng)
    # Lambda(T) must reproduce the exponential draw used to invert it, so
    # S(T | x) = exp(-E) is uniform; KS-style check against uniformity
    u = truth.surv(ts, xs)
    sorted_u = np.sort(u)
    ks = np.max(np.abs(sorted_u - np.arange(1, 501) / 500))
    assert ks < 0.08


def test_scalar_sampler_positive():
    rng = np.random.default_rng(11)
    for family in FAMILIES:
        spec = GeneratorSpec(family=family)
        x = 1.0 if family.startswith("scenario") else 0.5
        (t,) = sample_event_times(spec, np.array([x]), rng)
        assert t > 0


# --- scenario closed forms ---------------------------------------------------------

def test_scenario1_hazards_cross_at_half():
    truth = make_truth("scenario1")
    assert truth.lam(0.5, 0.0) == pytest.approx(1.0)
    assert truth.lam(0.5, 1.0) == pytest.approx(1.0)


def test_scenario1_survival_cross_at_one():
    truth = make_truth("scenario1")
    assert truth.surv(1.0, 0.0) == pytest.approx(math.exp(-1))
    assert truth.surv(1.0, 1.0) == pytest.approx(math.exp(-1))


def test_scenario2_hazard_at_zero():
    truth = make_truth("scenario2")
    assert truth.lam(0.0, 0.0) == pytest.approx(1.0)
    assert truth.lam(0.0, 1.0) == pytest.approx(1.0)


def test_gamma_shape_stays_above_one():
    xs = np.linspace(-1, 1, 2001)
    shape = np.exp(poly_link(xs, COEFFICIENTS["gamma"]["shape"]))
    assert shape.min() >= 1.0


# --- censoring calibration -----------------------------------------------------------

def test_calibrate_zero_target_returns_inf():
    spec = GeneratorSpec(family="exponential")
    assert calibrate_censoring(spec, 0.0, np.random.default_rng(0)) == math.inf


def test_calibrate_exponential_against_closed_form():
    # unit-rate T, C ~ U(0, b): P(C < T) = (1 - e^{-b}) / b, root at 1.5936
    target = 0.5
    root = brentq(lambda b: (1 - math.exp(-b)) / b - target, 1e-6, 50.0)
    rng = np.random.default_rng(5)
    ts = rng.exponential(1.0, size=100_000)

    def rate(b):
        return float(np.mean(np.minimum(ts / b, 1.0)))

    lo, hi = 1e-6, 50.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if rate(mid) > target:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - root) < 0.05


def test_calibrate_hits_target_rate_on_family():
    spec = GeneratorSpec(family="exponential")
    rng = np.random.default_rng(6)
    b = calibrate_censoring(spec, 0.5, rng)
    # independent draws: censoring probability with the calibrated bound
    xs = TABLE[spec.family].covariates(rng, 100_000)
    ts = sample_event_times(spec, xs, rng)
    realized = float(np.mean(np.minimum(ts / b, 1.0)))
    assert abs(realized - 0.5) < 0.02


def test_calibrated_censoring_realized_rate():
    spec = GeneratorSpec(family="weibull")
    sim = generate(spec, 0)
    assert 0.17 <= sim.realized_censoring <= 0.23
    assert 0.17 <= 1 - sim.test.event.mean() <= 0.23


def test_censoring_independent_of_covariates():
    # censoring times never see x: censoring rate must be flat across x bins
    sim = generate(GeneratorSpec(family="gompertz"), 3)
    x = sim.train.x[:, 0]
    censored = 1 - sim.train.event
    low = censored[x < np.median(x)].mean()
    high = censored[x >= np.median(x)].mean()
    # rates differ only through T's dependence on x; both near the target
    assert abs(low - high) < 0.12


def test_unreachable_family_rejected():
    with pytest.raises(UsageError):
        GeneratorSpec(family="pareto")
    with pytest.raises(UsageError):
        make_truth("pareto")


# --- dataset assembly ------------------------------------------------------------------

def test_generate_is_reproducible():
    spec = GeneratorSpec(family="loglogistic", n_train=200, n_test=100)
    a = generate(spec, 9)
    b = generate(spec, 9)
    np.testing.assert_array_equal(a.train.x, b.train.x)
    np.testing.assert_array_equal(a.train.time, b.train.time)
    np.testing.assert_array_equal(a.test.event, b.test.event)


def test_generate_shapes_and_columns():
    spec = GeneratorSpec(family="exponential", n_train=150, n_test=80)
    sim = generate(spec, 1)
    assert len(sim.train) == 150
    assert len(sim.test) == 80
    assert sim.train.columns == ("x",)
    assert set(np.unique(sim.train.event)) <= {0, 1}


def test_scenario_covariates_are_binary():
    sim = generate(GeneratorSpec(family="scenario2", n_train=300, n_test=50), 2)
    assert set(np.unique(sim.train.x)) <= {0.0, 1.0}


# --- evaluation helpers -------------------------------------------------------------------

def test_evaluation_grid_excludes_zero():
    times = np.linspace(0.0, 10.0, 1001)
    grid = evaluation_grid(times)
    assert len(grid) == 200
    assert grid[0] > 0
    assert grid[-1] == pytest.approx(np.quantile(times, 0.99))


def test_marginalized_single_subject_equals_conditional():
    truth = make_truth("exponential")
    grid = np.linspace(0.1, 2.0, 10)
    lam_m, ch_m, s_m = marginalized_curves(truth, np.array([0.3]), grid)
    lam_c, ch_c, s_c = truth.curves_matrix(np.array([0.3]), grid)
    np.testing.assert_array_equal(lam_m, lam_c[0])
    np.testing.assert_array_equal(s_m, s_c[0])


@pytest.mark.parametrize("family", ["weibull", "scenario2"])
def test_curves_matrix_reads_column_zero(family):
    truth = make_truth(family)
    x = np.array([0.0, 1.0, 0.0]) if family == "scenario2" else np.linspace(-1, 1, 3)
    grid = np.linspace(0.0, 3.0, 7)
    wide = np.column_stack([x, np.full_like(x, 9.0), -x])
    for xs in (x[:, None], wide):
        for a, b in zip(truth.curves_matrix(xs, grid), truth.curves_matrix(x, grid)):
            np.testing.assert_array_equal(a, b)


def test_marginalized_two_exponentials():
    truth = make_truth("scenario1")
    # groups have S = e^{-t} and S = e^{-t^2}; at t = 1 both are e^{-1}
    _, _, s_m = marginalized_curves(truth, np.array([0.0, 1.0]), np.array([1.0]))
    assert s_m[0] == pytest.approx(math.exp(-1))
    # unequal point: mean of the two closed forms
    _, _, s_half = marginalized_curves(truth, np.array([0.0, 1.0]), np.array([0.5]))
    assert s_half[0] == pytest.approx((math.exp(-0.5) + math.exp(-0.25)) / 2)


def test_l1_error_zero_for_perfect_model():
    truth = make_truth("weibull")
    xs = np.linspace(-1, 1, 20)
    grid = np.linspace(0.1, 5.0, 50)
    errs = l1_error(truth, truth, xs, grid)
    assert errs == (0.0, 0.0, 0.0)


def test_l1_error_constant_hazard_offset():
    truth = make_truth("exponential")
    offset = 0.37

    class Shifted:
        def curves_matrix(self, xs, grid):
            lam, ch, s = truth.curves_matrix(xs, grid)
            return lam + offset, ch, s

    xs = np.linspace(-1, 1, 10)
    grid = np.linspace(0.1, 3.0, 40)
    err_s, err_ch, err_lam = l1_error(Shifted(), truth, xs, grid)
    assert err_lam == pytest.approx(offset, rel=1e-12)
    assert err_s == 0.0 and err_ch == 0.0
