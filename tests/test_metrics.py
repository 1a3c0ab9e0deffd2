"""Kaplan-Meier, IPCW concordance, Brier/BLL, D-calibration, horizons."""

import math

import numpy as np
import pytest
from scipy import stats

from quadsurv.errors import ContractError, HorizonError, UndefinedMetricError
from quadsurv.metrics import (StepFunction,
                              SurvivalCurves, binomial_log_likelihood,
                              brier_score, c_index_td, censoring_survival,
                              d_calibration, evaluation_report,
                              integrated_brier_score, integrated_binomial_ll,
                              kaplan_meier, select_horizons)


# --- Kaplan-Meier -----------------------------------------------------------------

def test_km_single_event():
    km = kaplan_meier([5.0], [1])
    assert km(4.9) == 1.0
    assert km(5.0) == 0.0
    assert km(100.0) == 0.0


def test_km_product_limit_steps():
    # flipped all-censored input: every subject is an event for the censoring
    # process, at distinct times, so each step multiplies by 1 - 1/at_risk
    times = np.array([1.0, 2.0, 3.0, 4.0])
    ghat = censoring_survival(times, np.zeros(4, dtype=int))
    np.testing.assert_allclose(ghat(1.0), 3 / 4)
    np.testing.assert_allclose(ghat(2.0), 3 / 4 * 2 / 3)
    np.testing.assert_allclose(ghat(3.0), 3 / 4 * 2 / 3 * 1 / 2)
    np.testing.assert_allclose(ghat(4.0), 0.0)


def test_km_left_limit():
    km = kaplan_meier([1.0, 2.0], [1, 1])
    assert km(2.0, side="left") == 0.5
    assert km(2.0) == 0.0
    assert km(1.0, side="left") == 1.0


def test_km_no_censoring_equals_empirical_survival():
    rng = np.random.default_rng(0)
    t = rng.exponential(1.0, size=500)
    km = kaplan_meier(t, np.ones(500, dtype=int))
    for q in (0.1, 0.5, 0.9):
        point = np.quantile(t, q)
        assert km(point) == pytest.approx(np.mean(t > point))


@pytest.mark.slow
def test_km_exponential_sup_norm():
    rng = np.random.default_rng(1)
    t = rng.exponential(1.0, size=100_000)
    km = kaplan_meier(t, np.ones(len(t), dtype=int))
    mask = km.times <= np.quantile(t, 0.99)
    assert np.max(np.abs(km.values[mask] - np.exp(-km.times[mask]))) < 0.01


def test_km_empty_rejected():
    with pytest.raises(ContractError):
        kaplan_meier([], [])


def test_censoring_km_with_no_censoring_is_one():
    ghat = censoring_survival([1.0, 2.0, 3.0], [1, 1, 1])
    assert ghat(10.0) == 1.0


# --- prediction container -----------------------------------------------------------

def test_at_times_interpolation_and_anchor():
    curves = SurvivalCurves([1.0, 2.0], [[0.8, 0.4]])
    assert curves.at_times([2.0])[0, 0] == pytest.approx(0.4)
    assert curves.at_times([1.5])[0, 0] == pytest.approx(0.6)
    # anchored at S(0) = 1, constant extrapolation past the end
    assert curves.at_times([0.0])[0, 0] == pytest.approx(1.0)
    assert curves.at_times([0.5])[0, 0] == pytest.approx(0.9)
    assert curves.at_times([5.0])[0, 0] == pytest.approx(0.4)


# --- time-dependent concordance -------------------------------------------------------

def exp_curves(rates, grid):
    return SurvivalCurves(grid, np.exp(-np.outer(rates, grid)))


def test_c_index_perfect_order_is_one():
    n = 50
    times = np.linspace(1.0, 5.0, n)
    events = np.ones(n, dtype=int)
    curves = exp_curves(1.0 / times, np.linspace(0.01, 6.0, 400))
    ghat = censoring_survival(times, events)  # no censoring: G == 1
    res = c_index_td(curves, times, events, ghat, horizon=6.0)
    assert res.value == 1.0
    assert res.n_tied_predictions == 0


def test_c_index_identical_predictions_all_ties():
    n = 20
    times = np.linspace(1.0, 3.0, n)
    events = np.ones(n, dtype=int)
    grid = np.linspace(0.1, 4.0, 100)
    curves = SurvivalCurves(grid, np.tile(np.exp(-grid), (n, 1)))
    res = c_index_td(curves, times, events, censoring_survival(times, events),
                     horizon=4.0)
    assert res.value == 0.0
    assert res.n_tied_predictions == res.n_comparable_pairs


def test_c_index_random_predictions_near_half():
    rng = np.random.default_rng(7)
    n = 2000
    times = rng.exponential(1.0, size=n)
    events = np.ones(n, dtype=int)
    rates = rng.permutation(n) / n + 0.5
    grid = np.linspace(1e-3, float(times.max()) * 1.01, 300)
    curves = exp_curves(rates, grid)
    res = c_index_td(curves, times, events, censoring_survival(times, events),
                     horizon=float(times.max()) * 1.02)
    assert abs(res.value - 0.5) < 0.05


def test_c_index_no_comparable_pairs_signals():
    times = np.array([1.0, 1.0])
    events = np.array([1, 1])
    curves = exp_curves(np.array([1.0, 2.0]), np.linspace(0.1, 2, 20))
    with pytest.raises(UndefinedMetricError):
        c_index_td(curves, times, events, censoring_survival(times, events),
                   horizon=0.5)


def test_c_index_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    n = 200
    times = rng.exponential(1.0, size=n)
    events = rng.integers(0, 2, size=n)
    if events.sum() == 0:
        events[0] = 1
    grid = np.linspace(1e-3, float(times.max()) * 1.01, 150)
    values = np.exp(-np.outer(rng.uniform(0.5, 2.0, n), grid))
    ghat = censoring_survival(times, events)
    base = c_index_td(SurvivalCurves(grid, values), times, events, ghat,
                      float(times.max()) * 1.02)
    warped = c_index_td(SurvivalCurves(grid, values ** 3), times, events, ghat,
                        float(times.max()) * 1.02)
    assert base.value == pytest.approx(warped.value, abs=1e-12)


def test_c_index_ipcw_cap_applies():
    # heavy censoring forces G tiny; weights must clip at the cap, keeping
    # the statistic finite and the clip counter positive
    rng = np.random.default_rng(5)
    n = 400
    t_event = rng.exponential(2.0, size=n)
    t_cens = rng.exponential(0.5, size=n)
    times = np.minimum(t_event, t_cens)
    events = (t_event <= t_cens).astype(int)
    grid = np.linspace(1e-3, float(times.max()) * 1.01, 120)
    curves = exp_curves(rng.uniform(0.5, 2.0, n), grid)
    ghat = censoring_survival(times, events)
    res = c_index_td(curves, times, events, ghat, float(times.max()) * 1.02)
    assert math.isfinite(res.value)
    assert res.n_clipped_weights > 0


# --- Brier and binomial log-likelihood --------------------------------------------------

def hand_case():
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([1, 0, 1])
    grid = np.array([1.0, 2.0, 3.0])
    surv = np.array([[0.7, 0.3, 0.1],
                     [0.8, 0.5, 0.2],
                     [0.9, 0.6, 0.4]])
    ghat = StepFunction(np.array([1.5, 2.5]), np.array([0.8, 0.5]))
    return SurvivalCurves(grid, surv), times, events, ghat


def test_brier_hand_arithmetic():
    curves, times, events, ghat = hand_case()
    # t = 2: subject 1 died before (w = 1/G(1-) = 1), subject 2 is exactly at
    # t (no contribution), subject 3 at risk (w = 1/G(2) = 1/0.8)
    expected = (0.3 ** 2 * 1.0 + (1 - 0.6) ** 2 / 0.8) / 3.0
    value, _ = brier_score(curves, times, events, ghat, 2.0)
    assert value == pytest.approx(expected, abs=1e-12)


def test_bll_hand_arithmetic():
    curves, times, events, ghat = hand_case()
    expected = (math.log(1 - 0.3) * 1.0 + math.log(0.6) / 0.8) / 3.0
    value = binomial_log_likelihood(curves, times, events, ghat, 2.0)
    assert value == pytest.approx(expected, abs=1e-12)


def test_brier_event_weight_uses_left_limit():
    times = np.array([1.5, 3.0])
    events = np.array([1, 0])
    grid = np.array([1.0, 2.0, 3.0])
    surv = np.array([[0.9, 0.5, 0.2], [0.95, 0.8, 0.6]])
    ghat = StepFunction(np.array([1.5]), np.array([0.5]))
    # G(1.5-) = 1, so the event subject's weight is exactly 1, not 2
    expected = (0.5 ** 2 * 1.0 + (1 - 0.8) ** 2 / 0.5) / 2.0
    value, _ = brier_score(SurvivalCurves(grid, surv), times, events, ghat, 2.0)
    assert value == pytest.approx(expected, abs=1e-12)


def test_brier_trivial_zero_contributions():
    # S = 1 for an at-risk subject and S = 0 for a dead one both contribute 0
    times = np.array([1.0, 5.0])
    events = np.array([1, 0])
    grid = np.array([1.0, 2.0, 5.0])
    surv = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    ghat = censoring_survival(times, np.array([1, 1]))
    value, _ = brier_score(SurvivalCurves(grid, surv), times, events, ghat, 2.0)
    assert value == 0.0


def test_bll_half_prediction():
    # S = 0.5 everywhere, no censoring: BLL(t) = ln 0.5 at any interior t
    n = 8
    times = np.linspace(1, 8, n)
    events = np.ones(n, dtype=int)
    grid = np.linspace(0.5, 9.0, 50)
    curves = SurvivalCurves(grid, np.full((n, len(grid)), 0.5))
    ghat = censoring_survival(times, events)
    assert binomial_log_likelihood(curves, times, events, ghat, 4.2) == \
        pytest.approx(math.log(0.5), abs=1e-12)


def test_ibs_bounds_without_censoring():
    rng = np.random.default_rng(11)
    n = 100
    times = rng.exponential(1.0, size=n)
    events = np.ones(n, dtype=int)
    grid = np.linspace(1e-3, float(times.max()), 80)
    curves = SurvivalCurves(grid, np.exp(-np.outer(rng.uniform(0.5, 2, n), grid)))
    ghat = censoring_survival(times, events)
    horizon = float(np.quantile(times, 0.9))
    val = integrated_brier_score(curves, times, events, ghat, horizon)
    assert 0.0 <= val <= 1.0
    assert integrated_binomial_ll(curves, times, events, ghat, horizon) <= 0.0


def test_horizon_beyond_support_raises():
    curves, times, events, _ = hand_case()
    ghat = StepFunction(np.array([1.5]), np.array([0.0]))
    with pytest.raises(HorizonError):
        brier_score(curves, times, events, ghat, 2.0)


# --- D-calibration ------------------------------------------------------------------------

def test_dcal_censored_at_one_spreads_uniformly():
    res = d_calibration(np.array([1.0]), np.array([0]))
    np.testing.assert_allclose(res.bin_mass, np.full(10, 0.1), atol=1e-12)


def test_dcal_all_mass_one_bin():
    res = d_calibration(np.full(100, 0.05), np.ones(100, dtype=int))
    assert res.statistic == pytest.approx(900.0)
    assert res.p_value < 1e-12


def test_dcal_uniform_is_calibrated():
    rng = np.random.default_rng(2)
    s = rng.random(5000)
    res = d_calibration(s, np.ones(5000, dtype=int))
    assert res.p_value > 0.01
    assert res.p_value == pytest.approx(stats.chi2.sf(res.statistic, 9), abs=1e-12)


def test_dcal_censored_mass_partial_interval():
    # censored subject with S = 0.25 spreads its mass over [0, 0.25]:
    # bins 0 and 1 get 0.4 each, bin 2 gets 0.2
    res = d_calibration(np.array([0.25]), np.array([0]))
    np.testing.assert_allclose(res.bin_mass[:3], [0.4, 0.4, 0.2], atol=1e-12)
    np.testing.assert_allclose(res.bin_mass[3:], 0.0, atol=1e-12)


def test_dcal_event_at_boundary_goes_to_top_bin():
    res = d_calibration(np.array([1.0]), np.array([1]))
    assert res.bin_mass[9] == 1.0


# --- horizons -------------------------------------------------------------------------------

def test_select_horizons_no_censoring():
    horizons = select_horizons([1.0, 2.0, 3.0], [1, 1, 1], [0.5, 1.5, 2.5])
    assert horizons.full == 3.0
    assert not horizons.q2_ties_full


def test_select_horizons_hand_quantiles():
    test_times = np.arange(1.0, 9.0)  # 1..8
    horizons = select_horizons([10.0, 11.0], [1, 1], test_times)
    assert horizons.q1 == pytest.approx(np.quantile(test_times, 0.25))
    assert horizons.q2 == pytest.approx(np.quantile(test_times, 0.5))


def test_select_horizons_support_rule_and_tie_flag():
    train_t = [1.0, 2.0, 3.0, 4.0, 5.0]
    train_e = [1, 1, 0, 0, 0]
    # censoring KM hits zero at t = 5, so the full horizon stops at 4
    horizons = select_horizons(train_t, train_e, [4.5, 6.0, 7.0, 8.0])
    assert horizons.full == 4.0
    assert horizons.q2 == 4.0  # capped
    assert horizons.q2_ties_full


def test_select_horizons_degenerate_censoring():
    with pytest.raises(HorizonError):
        select_horizons([1.0], [0], [1.0])


# --- report ----------------------------------------------------------------------------------

def test_evaluation_report_schema_and_finiteness():
    rng = np.random.default_rng(4)
    n = 300
    t_event = rng.exponential(1.0, size=n)
    t_cens = rng.exponential(4.0, size=n)
    times = np.minimum(t_event, t_cens)
    events = (t_event <= t_cens).astype(int)
    rates = rng.uniform(0.7, 1.4, size=n)

    def curves_fn(grid):
        return np.exp(-np.outer(rates, grid))

    report = evaluation_report(curves_fn, times, events, times, events)
    assert set(report["horizons"]) == {"full", "q1", "q2"}
    for h in report["horizons"].values():
        assert math.isfinite(h["ibs"]) and math.isfinite(h["ibll"])
        assert h["ctd"] is None or 0.0 <= h["ctd"] <= 1.0
    assert 0.0 <= report["dcal_p"] <= 1.0
    assert report["n_comparable_pairs"] > 0
