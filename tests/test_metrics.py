"""Kaplan-Meier, IPCW concordance, Brier/BLL, D-calibration, horizons."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from quadsurv import metrics
from quadsurv.errors import ContractError, HorizonError, UndefinedMetricError
from quadsurv.metrics import (IPCW_CAP, SURVIVAL_CLAMP, StepFunction,
                              SurvivalCurves, c_index_td, censoring_survival,
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


@pytest.mark.parametrize("side", ["Left", "both", ""])
def test_step_function_rejects_unknown_side(side):
    with pytest.raises(ContractError, match="side"):
        kaplan_meier([1.0, 2.0], [1, 1])(2.0, side=side)


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


def test_c_index_within_rejects_a_larger_horizon():
    times = np.array([1.0, 2.0, 3.0])
    events = np.array([1, 1, 0])
    curves = exp_curves(np.array([2.0, 1.0, 0.5]), np.linspace(0.1, 4, 40))
    res = c_index_td(curves, times, events, censoring_survival(times, events), 2.5)
    assert res.within(2.5) == res
    with pytest.raises(ContractError, match="horizon"):
        res.within(3.0)


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


def scores_at(curves, times, events, ghat, t):
    """(Brier score, binomial log-likelihood) at one time."""
    return tuple(float(metrics._ipcw_score(curves, times, events, ghat, [t], terms)[0])
                 for terms in (metrics._brier_terms, metrics._bll_terms))


def test_brier_hand_arithmetic():
    curves, times, events, ghat = hand_case()
    # t = 2: subject 1 died before (w = 1/G(1-) = 1), subject 2 is exactly at
    # t (no contribution), subject 3 at risk (w = 1/G(2) = 1/0.8)
    expected = (0.3 ** 2 * 1.0 + (1 - 0.6) ** 2 / 0.8) / 3.0
    value = scores_at(curves, times, events, ghat, 2.0)[0]
    assert value == pytest.approx(expected, abs=1e-12)


def test_bll_hand_arithmetic():
    curves, times, events, ghat = hand_case()
    expected = (math.log(1 - 0.3) * 1.0 + math.log(0.6) / 0.8) / 3.0
    value = scores_at(curves, times, events, ghat, 2.0)[1]
    assert value == pytest.approx(expected, abs=1e-12)


def test_brier_event_weight_uses_left_limit():
    times = np.array([1.5, 3.0])
    events = np.array([1, 0])
    grid = np.array([1.0, 2.0, 3.0])
    surv = np.array([[0.9, 0.5, 0.2], [0.95, 0.8, 0.6]])
    ghat = StepFunction(np.array([1.5]), np.array([0.5]))
    # G(1.5-) = 1, so the event subject's weight is exactly 1, not 2
    expected = (0.5 ** 2 * 1.0 + (1 - 0.8) ** 2 / 0.5) / 2.0
    value = scores_at(SurvivalCurves(grid, surv), times, events, ghat, 2.0)[0]
    assert value == pytest.approx(expected, abs=1e-12)


def test_brier_trivial_zero_contributions():
    # S = 1 for an at-risk subject and S = 0 for a dead one both contribute 0
    times = np.array([1.0, 5.0])
    events = np.array([1, 0])
    grid = np.array([1.0, 2.0, 5.0])
    surv = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    ghat = censoring_survival(times, np.array([1, 1]))
    value = scores_at(SurvivalCurves(grid, surv), times, events, ghat, 2.0)[0]
    assert value == 0.0


def test_bll_half_prediction():
    # S = 0.5 everywhere, no censoring: BLL(t) = ln 0.5 at any interior t
    n = 8
    times = np.linspace(1, 8, n)
    events = np.ones(n, dtype=int)
    grid = np.linspace(0.5, 9.0, 50)
    curves = SurvivalCurves(grid, np.full((n, len(grid)), 0.5))
    ghat = censoring_survival(times, events)
    assert scores_at(curves, times, events, ghat, 4.2)[1] == \
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
        scores_at(curves, times, events, ghat, 2.0)


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


def _report_peak(n, seed):
    """tracemalloc peak of ``evaluation_report`` on n test subjects, in bytes."""
    rng = np.random.default_rng(seed)
    rates = np.exp(0.8 * rng.normal(size=n))
    t_event = rng.exponential(1.0 / rates)
    t_cens = rng.exponential(2.0, size=n)
    times = np.minimum(t_event, t_cens)
    events = (t_event <= t_cens).astype(int)
    tracemalloc.start()
    try:
        evaluation_report(lambda grid: np.exp(-np.outer(rates, grid)),
                          times[:2000], events[:2000], times, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_evaluation_report_memory_is_linear_in_subjects():
    # an (n, n) float64 matrix alone would take n^2 * 8 bytes = 288 MB here
    assert _report_peak(6000, seed=8) < 150 * 2 ** 20


def test_evaluation_report_memory_at_16k_subjects():
    # an (n, n) float64 matrix alone would take 2 GB here; the peak was
    # 113.3 MB with per-horizon concordance and 114.0 MB with one time-sorted
    # pass, whose sorted copy of the curves takes 13 MB
    assert _report_peak(16000, seed=9) < 125 * 2 ** 20


def test_evaluation_report_computes_c_index_once(monkeypatch):
    rng = np.random.default_rng(12)
    n = 500
    t_event = rng.exponential(1.0, size=n)
    t_cens = rng.exponential(3.0, size=n)
    times = np.minimum(t_event, t_cens)
    events = (t_event <= t_cens).astype(int)
    rates = rng.uniform(0.5, 2.0, size=n)

    def curves_fn(grid):
        return np.exp(-np.outer(rates, grid))

    calls = []

    def counting(*args):
        calls.append(args)
        return c_index_td(*args)

    monkeypatch.setattr(metrics, "c_index_td", counting)
    report = evaluation_report(curves_fn, times, events, times, events)
    assert len(calls) == 1

    ghat = censoring_survival(times, events)
    taus = report["horizon_taus"]
    grid = metrics._integration_grid(times, taus["full"])
    full_curves = SurvivalCurves(grid, curves_fn(grid))
    direct = {name: c_index_td(full_curves, times, events, ghat, taus[name])
              for name in ("full", "q1", "q2")}
    for name, res in direct.items():
        assert report["horizons"][name]["ctd"] == res.value
    assert report["n_comparable_pairs"] == direct["full"].n_comparable_pairs
    assert report["clip_events"] == sum(r.n_clipped_weights for r in direct.values())


# --- exact equality with the per-event and per-time reference loops ---------------------

def _ref_weights(g):
    g = np.asarray(g, dtype=np.float64)
    with np.errstate(divide="ignore"):
        inv = np.where(g > 0, 1.0 / g, np.inf)
    return np.minimum(inv, IPCW_CAP), int(np.sum(inv > IPCW_CAP))


def _ref_c_index(curves, times, events, ghat, horizon):
    """One event at a time over an (n, n_events) matrix, with sequential sums."""
    ev = np.flatnonzero(events.astype(bool) & (times < horizon))
    if len(ev) == 0:
        return None
    w_sq, clipped = _ref_weights(np.asarray(ghat(times[ev], side="left")) ** 2)
    s_at_event_times = curves.at_times(times[ev])
    numer = denom = 0.0
    tied = comparable = 0
    for col, i in enumerate(ev):
        later = times > times[i]
        n_later = int(np.sum(later))
        if n_later == 0:
            continue
        s_i = s_at_event_times[i, col]
        s_j = s_at_event_times[later, col]
        tied += int(np.sum(s_j == s_i))
        numer += w_sq[col] * int(np.sum(s_j > s_i))
        denom += w_sq[col] * n_later
        comparable += n_later
    if comparable == 0 or denom == 0.0:
        return None
    return float(numer / denom), comparable, tied, clipped


def _ref_scores(curves, times, events, ghat, t):
    """Brier score and binomial log-likelihood at one time."""
    events = events.astype(bool)
    s_t = curves.at_times([t])[:, 0]
    s_bll = np.clip(s_t, SURVIVAL_CLAMP, 1.0 - SURVIVAL_CLAMP)
    died = (times < t) & events
    alive = times > t
    w_event, _ = _ref_weights(ghat(times, side="left"))
    w_at_t, _ = _ref_weights(np.full(1, ghat(t)))
    brier = np.zeros(len(times))
    brier[died] = (s_t[died] ** 2) * w_event[died]
    brier[alive] = ((1.0 - s_t[alive]) ** 2) * w_at_t[0]
    bll = np.zeros(len(times))
    bll[died] = np.log(1.0 - s_bll[died]) * w_event[died]
    bll[alive] = np.log(s_bll[alive]) * w_at_t[0]
    return float(brier.mean()), float(bll.mean())


def _random_case(rng, grid_from_zero):
    n = int(rng.integers(2, 300))
    if rng.random() < 0.5:  # few distinct times: tied observations
        times = rng.choice(np.round(rng.exponential(1.0, size=8), 2), size=n)
    else:
        times = rng.exponential(1.0, size=n)
    events = (rng.random(n) < rng.uniform(0.2, 1.0)).astype(int)
    t_max = float(times.max())
    grid = np.unique(rng.uniform(0.0, 1.2 * t_max + 0.1, size=int(rng.integers(2, 40))))
    grid = np.concatenate([[0.0], grid]) if grid_from_zero else grid[grid > 0]
    if rng.random() < 0.5:  # coarse values: tied predictions
        values = np.round(rng.random((n, len(grid))), 1)
    else:
        values = np.exp(-np.outer(rng.uniform(0.3, 3.0, size=n), grid))
    # G = 0.1 gives a weight of exactly the cap, 0.3 and below clip 1/G^2
    jumps = np.sort(rng.uniform(0.0, t_max, size=6))
    ghat = StepFunction(jumps, [0.9, 0.6, 0.3, 0.1, 0.07, 0.05])
    return SurvivalCurves(grid, values), times, events, ghat


@pytest.mark.parametrize("block_cells", [None, 64])
@pytest.mark.parametrize("grid_from_zero", [False, True])
def test_metrics_equal_reference_loops_exactly(monkeypatch, grid_from_zero, block_cells):
    if block_cells is not None:  # many narrow blocks in c_index_td
        monkeypatch.setattr(metrics, "CTD_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(17 + grid_from_zero)
    for _ in range(40):
        curves, times, events, ghat = _random_case(rng, grid_from_zero)
        assert np.array_equal(curves.at_own_times(times),
                              np.diag(curves.at_times(times)))
        for horizon in (float(np.median(times)), float(times.max()) * 1.01):
            try:
                res = c_index_td(curves, times, events, ghat, horizon)
                got = (res.value, res.n_comparable_pairs, res.n_tied_predictions,
                       res.n_clipped_weights)
            except UndefinedMetricError:
                got = None
            assert got == _ref_c_index(curves, times, events, ghat, horizon)
        try:  # the largest horizon serves every smaller one through `within`
            widest = c_index_td(curves, times, events, ghat, float(times.max()) * 1.01)
        except UndefinedMetricError:
            widest = None
        for h in (float(times.min()), float(np.median(times)), float(times.max())):
            got = None
            if widest is not None:
                try:
                    res = widest.within(h)
                    got = (res.value, res.n_comparable_pairs, res.n_tied_predictions,
                           res.n_clipped_weights)
                except UndefinedMetricError:
                    pass
            assert got == _ref_c_index(curves, times, events, ghat, h)
        for t in (float(times.min()), float(np.median(times)), float(times.max())):
            assert scores_at(curves, times, events, ghat, t) == \
                _ref_scores(curves, times, events, ghat, t)
        _assert_integrals_match_reference(curves, times, events, ghat,
                                          float(np.quantile(times, 0.8)))


def _assert_integrals_match_reference(curves, times, events, ghat, horizon):
    grid = metrics._integration_grid(times, horizon)
    scores = np.array([_ref_scores(curves, times, events, ghat, t) for t in grid])
    for got, column in ((integrated_brier_score(curves, times, events, ghat, horizon), 0),
                        (integrated_binomial_ll(curves, times, events, ghat, horizon), 1)):
        want = (scores[0, column] if len(grid) == 1 else
                np.trapezoid(scores[:, column], grid) / (grid[-1] - grid[0]))
        assert got == float(want)


def test_integrals_match_reference_at_large_n():
    # a row of (time, subject) values is summed pairwise, as the reference's
    # one-time mean is; a (subject, time) layout would sum each time sequentially
    rng = np.random.default_rng(23)
    n = 9000
    times = rng.exponential(1.0, size=n)
    events = (rng.random(n) < 0.6).astype(int)
    grid = np.linspace(0.01, 3.0, 30)
    curves = SurvivalCurves(grid, np.exp(-np.outer(rng.uniform(0.3, 3.0, size=n), grid)))
    ghat = censoring_survival(rng.exponential(1.0, size=300), rng.integers(0, 2, size=300))
    _assert_integrals_match_reference(curves, times, events, ghat, 1.5)
