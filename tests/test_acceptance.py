"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -v or -s to see them);
a pytest failure line is the FAIL signal.  Training-based criteria pin their
full protocol (seeds included) so reruns are bit-identical.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from quadsurv import autodiff as ad
from quadsurv import metrics as mx
from quadsurv.data import SurvivalData
from quadsurv.model import HazardModel, ModelConfig
from quadsurv.quadrature import build_rule, error_bound
from quadsurv.simulation import (GeneratorSpec, evaluation_grid, generate,
                                 l1_error)
from quadsurv.training import TrainingConfig, nll_terms, train
from quadsurv import cli

SIM_PROTOCOL = dict(hidden=(32, 32), activation="tanh", conditioning="lora",
                    learning_rate=1e-2, weight_decay=1e-6, batch_size=256,
                    max_epochs=200, val_grid_points=48)


def _report(n, detail):
    print(f"[acceptance] criterion {n} PASS: {detail}")


# -- 1 ----------------------------------------------------------------------------

def test_criterion_01_quadrature_polynomial_exactness(longdouble_cumhaz):
    # float64 cumhaz, as the loss runs it, is exact up to round-off of its
    # K-term sum (t^16 / 16 at t = 3 is about 2.7e6, where one ulp is 4.7e-10);
    # the longdouble oracle holds the same rule to 1e-10
    t_start = time.perf_counter()
    worst, worst_eps = 0.0, 0.0
    t = np.array([0.5, 1.0, 3.0])
    for k in range(1, 9):
        rule = build_rule(k)
        for d in range(0, 2 * k):
            exact = t ** (d + 1) / (d + 1)
            err = np.abs(rule.cumhaz(rule.points(t)[:, 1:].T ** d, t) - exact)
            worst_eps = max(worst_eps, float(np.max(err / exact)) / np.finfo(float).eps)
            assert np.all(err < 1e-10 + 8 * np.finfo(float).eps * exact), (k, d, err)
            for ti, ex in zip(t, exact):
                err = abs(float(longdouble_cumhaz(k, lambda s, d=d: s ** d, ti)) - ex)
                worst = max(worst, err)
                assert err < 1e-10, (k, d, ti, err)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    _report(1, f"max |error| {worst:.2e} in longdouble, {worst_eps:.1f} eps relative "
               f"in float64 cumhaz, over K=1..8, deg<=2K-1 ({elapsed:.2f}s)")


# -- 2 ----------------------------------------------------------------------------

def test_criterion_02_truncation_bound_exponential(longdouble_cumhaz):
    t_start = time.perf_counter()
    margins = []
    for k in (2, 3, 4, 5):
        rule = build_rule(k)
        for t in (0.5, 1.0, 2.0):
            measured = abs(float(longdouble_cumhaz(k, np.exp, t)
                                 - np.expm1(np.longdouble(t))))
            bound = error_bound(rule, t, math.exp(t))
            assert measured <= bound, (k, t, measured, bound)
            margins.append(measured / bound)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    _report(2, f"bound holds in 12/12 cells, worst ratio {max(margins):.3f}")


# -- 3 ----------------------------------------------------------------------------

def test_criterion_03_loss_error_equals_cumhaz_error():
    t_start = time.perf_counter()
    rule_ref = build_rule(40)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        cond = ("concat", "film", "lora")[trial % 3]
        cfg = ModelConfig(input_dim=2, hidden=(8, 8), activation="tanh",
                          conditioning=cond, rank=3, time_embed_dim=6,
                          modulation_hidden=8)
        model = HazardModel(cfg, rng)
        for p in model.params.values():
            p.values = rng.normal(0, 0.4, size=p.values.shape)
        rule = build_rule(int(rng.integers(2, 9)))
        x = rng.normal(size=(8, 2))
        times = rng.uniform(0.05, 2.5, size=8)
        events = rng.integers(0, 2, size=8)
        ev_k, ch_k = nll_terms(model, rule, x, times, events)
        ev_r, ch_r = nll_terms(model, rule_ref, x, times, events)
        nll_k = ch_k - ev_k
        nll_r = ch_r - ev_r
        gap = abs(np.mean(np.abs(nll_k - nll_r)) - np.mean(np.abs(ch_k - ch_r)))
        worst = max(worst, gap)
        assert gap < 1e-12
        # the event term is identical by construction
        np.testing.assert_array_equal(ev_k, ev_r)
        # scalar batch losses obey the triangle version of the identity
        assert abs(np.mean(nll_k) - np.mean(nll_r)) <= \
            np.mean(np.abs(ch_k - ch_r)) + 1e-12
    elapsed = time.perf_counter() - t_start
    assert elapsed < 5.0
    _report(3, f"identity to {worst:.2e} on 20 random models ({elapsed:.2f}s)")


# -- 4 ----------------------------------------------------------------------------

def test_criterion_04_gradient_check_all_heads():
    from quadsurv.training import nll_loss
    t_start = time.perf_counter()
    rule = build_rule(6)
    worst = 0.0
    for cond in ("concat", "film", "lora"):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            cfg = ModelConfig(input_dim=3, hidden=(8, 8), activation="tanh",
                              conditioning=cond, rank=2, time_embed_dim=4,
                              modulation_hidden=6)
            model = HazardModel(cfg, rng)
            for p in model.params.values():
                p.values = rng.normal(0, 0.4, size=p.values.shape)
            x = rng.normal(size=(8, 3))
            times = rng.uniform(0.1, 2.0, size=8)
            events = rng.integers(0, 2, size=8)

            loss = nll_loss(model, rule, x, times, events)
            ad.zero_grad(model.params.values())
            ad.backward(loss)
            analytic = {k: p.grad.copy() for k, p in model.params.items()}

            step = 1e-5
            for name, p in model.params.items():
                flat = p.values.ravel()
                g_fd = np.zeros_like(flat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    hi = float(nll_loss(model, rule, x, times, events).values)
                    flat[i] = orig - step
                    lo = float(nll_loss(model, rule, x, times, events).values)
                    flat[i] = orig
                    g_fd[i] = (hi - lo) / (2 * step)
                a = analytic[name].ravel()
                scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(g_fd)))
                rel = np.max(np.abs(a - g_fd) / scale)
                worst = max(worst, rel)
                assert rel < 1e-4, (cond, seed, name, rel)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    _report(4, f"max relative gradient gap {worst:.2e} over 3 heads x 5 seeds "
               f"({elapsed:.1f}s)")


# -- 5 ----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_05_weibull_hazard_replication():
    errors = []
    walls = []
    for seed in range(5):
        sim = generate(GeneratorSpec(family="weibull"), seed)
        cfg = TrainingConfig(seed=seed, k_nodes=15, **SIM_PROTOCOL)
        res = train(cfg, sim.train)
        assert res.wall_clock <= 60.0, f"seed {seed} took {res.wall_clock:.0f}s"
        grid = evaluation_grid(sim.train.time)
        _, _, err_lam = l1_error(res, sim.truth, sim.test.x[:, 0], grid)
        errors.append(err_lam)
        walls.append(res.wall_clock)
    mean_err = float(np.mean(errors))
    assert mean_err <= 0.06
    _report(5, f"mean hazard L1 {mean_err:.4f} over 5 seeds "
               f"(reference scale 0.0282 +/- 0.0139), max wall {max(walls):.0f}s")


# -- 6 ----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_node_count_study():
    t_start = time.perf_counter()
    ks = (1, 3, 5, 10)
    iae = {k: [] for k in ks}
    walls = {k: [] for k in ks}
    for seed in range(5):
        sim = generate(GeneratorSpec(family="scenario2"), seed)
        grid = evaluation_grid(sim.train.time)
        for k in ks:
            cfg = TrainingConfig(seed=seed, k_nodes=k, **SIM_PROTOCOL)
            res = train(cfg, sim.train)
            _, _, err_lam = l1_error(res, sim.truth, sim.test.x[:, 0], grid)
            iae[k].append(err_lam)
            walls[k].append(res.wall_clock)
    mean_iae = {k: float(np.mean(iae[k])) for k in ks}
    mean_wall = {k: float(np.mean(walls[k])) for k in ks}
    assert mean_iae[5] < mean_iae[1]
    assert mean_iae[5] <= 1.2 * mean_iae[10]
    rho = spearmanr(ks, [mean_wall[k] for k in ks]).statistic
    assert rho > 0
    elapsed = time.perf_counter() - t_start
    assert elapsed < 600.0
    _report(6, f"IAE K5 {mean_iae[5]:.3f} < K1 {min(mean_iae[1], 9.99):.3g}, "
               f"K5 within {mean_iae[5] / mean_iae[10] - 1:+.1%} of K10; "
               f"wall Spearman {rho:.2f} ({elapsed:.0f}s)")


# -- 7 ----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_crossing_hazard_recovery():
    hits = 0
    crossings = []
    for seed in range(5):
        sim = generate(GeneratorSpec(family="scenario1"), seed)
        cfg = TrainingConfig(seed=seed, k_nodes=10, **SIM_PROTOCOL)
        res = train(cfg, sim.train)
        grid = np.linspace(0.05, 1.5, 146)
        lam, _, _ = res.curves_matrix(np.array([0.0, 1.0]), grid)
        diff = lam[1] - lam[0]
        sign_change = np.where(np.diff(np.sign(diff)) != 0)[0]
        t_cross = float(grid[sign_change[0]]) if len(sign_change) else None
        crossings.append(t_cross)
        if t_cross is not None and 0.3 <= t_cross <= 0.7:
            hits += 1
    assert hits >= 4, crossings
    _report(7, f"hazard curves cross in [0.3, 0.7] in {hits}/5 seeds "
               f"(truth 0.5; estimates {crossings})")


# -- 8 ----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_08_metric_oracles():
    t_start = time.perf_counter()
    # Kaplan-Meier vs closed form at n = 1e5
    rng = np.random.default_rng(80)
    draws = rng.exponential(1.0, size=100_000)
    km = mx.kaplan_meier(draws, np.ones(len(draws), dtype=int))
    mask = km.times <= np.quantile(draws, 0.99)
    km_gap = float(np.max(np.abs(km.values[mask] - np.exp(-km.times[mask]))))
    assert km_gap < 0.01

    # perfectly ordered predictions
    n = 100
    times = np.linspace(1.0, 4.0, n)
    events = np.ones(n, dtype=int)
    grid = np.linspace(0.01, 5.0, 500)
    curves = mx.SurvivalCurves(grid, np.exp(-np.outer(1.0 / times, grid)))
    ghat = mx.censoring_survival(times, events)
    assert mx.c_index_td(curves, times, events, ghat, 5.0).value == 1.0

    # random predictions near one half
    rng = np.random.default_rng(81)
    n = 2000
    times_r = rng.exponential(1.0, size=n)
    rates = rng.permutation(n) / n + 0.5
    grid_r = np.linspace(1e-3, float(times_r.max()) * 1.01, 300)
    curves_r = mx.SurvivalCurves(grid_r, np.exp(-np.outer(rates, grid_r)))
    ghat_r = mx.censoring_survival(times_r, np.ones(n, dtype=int))
    c_rand = mx.c_index_td(curves_r, times_r, np.ones(n, dtype=int), ghat_r,
                           float(times_r.max()) * 1.02).value
    assert abs(c_rand - 0.5) < 0.05

    # three-subject hand computation
    hand_times = np.array([1.0, 2.0, 3.0])
    hand_events = np.array([1, 0, 1])
    hand_curves = mx.SurvivalCurves(
        np.array([1.0, 2.0, 3.0]),
        np.array([[0.7, 0.3, 0.1], [0.8, 0.5, 0.2], [0.9, 0.6, 0.4]]))
    hand_ghat = mx.StepFunction(np.array([1.5, 2.5]), np.array([0.8, 0.5]))
    bs, bll, _ = mx._ipcw_scores(hand_curves, hand_times, hand_events, hand_ghat,
                                 [2.0])
    assert abs(bs[0] - (0.3 ** 2 + (1 - 0.6) ** 2 / 0.8) / 3) < 1e-12
    assert abs(bll[0] - (math.log(0.7) + math.log(0.6) / 0.8) / 3) < 1e-12

    # D-calibration rejection rate under the probability integral transform
    rng = np.random.default_rng(82)
    rejections = 0
    for _ in range(200):
        s = rng.random(500)
        if mx.d_calibration(s, np.ones(500, dtype=int)).p_value < 0.05:
            rejections += 1
    rate = rejections / 200
    assert 0.02 <= rate <= 0.10

    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    _report(8, f"KM sup {km_gap:.4f}, perfect C=1, random C {c_rand:.3f}, "
               f"hand BS/BLL exact, D-cal rejection rate {rate:.3f}")


# -- 9 ----------------------------------------------------------------------------

def test_criterion_09_cache_soundness_and_head_equivalence():
    rng = np.random.default_rng(90)
    worst_cache = 0.0
    for cond in ("concat", "film", "lora"):
        cfg = ModelConfig(input_dim=2, hidden=(8, 8), activation="tanh",
                          conditioning=cond, rank=3, time_embed_dim=6,
                          modulation_hidden=8)
        model = HazardModel(cfg, np.random.default_rng(91))
        for p in model.params.values():
            p.values = rng.normal(0, 0.4, size=p.values.shape)
        rule = build_rule(10)
        # the loss's layout, (b, K) node times per subject, against the curves'
        # layout, every subject on one shared grid of all b K times
        x = rng.normal(size=(4, 2))
        times = np.outer(rng.uniform(0.1, 4.0, size=4), rule.unit_nodes)
        per_subject = model.log_hazard_matrix(x, times)
        shared = model.log_hazard_matrix(x, times.ravel()).reshape(4, 4, -1)
        gap = np.abs(per_subject - shared[np.arange(4), np.arange(4)])
        worst_cache = max(worst_cache, float(np.max(gap)))
    assert worst_cache < 1e-12

    # zero-modulation low-rank head, identity film, and the static head agree
    d_h = 6
    lora = HazardModel(ModelConfig(input_dim=2, hidden=(8, d_h),
                                   activation="tanh", conditioning="lora",
                                   rank=2, time_embed_dim=4,
                                   modulation_hidden=6),
                       np.random.default_rng(92))
    for p in lora.params.values():
        p.values = rng.normal(0, 0.4, size=p.values.shape)
    lora.params["lora.U"].values[:] = 0.0
    w = lora.params["lora.W"].values
    b = lora.params["lora.b"].values
    wf = lora.params["head.W"].values
    bf = lora.params["head.b"].values

    film = HazardModel(ModelConfig(input_dim=2, hidden=(8, d_h),
                                   activation="tanh", conditioning="film",
                                   time_embed_dim=4, modulation_hidden=6),
                       np.random.default_rng(92))
    for name in ("backbone.0.W", "backbone.0.b", "backbone.1.W", "backbone.1.b"):
        film.params[name].values = lora.params[name].values.copy()
    film.params["film.gamma.W"].values[:] = 0.0
    film.params["film.gamma.b"].values[:] = 1.0
    film.params["film.beta.W"].values[:] = 0.0
    film.params["film.beta.b"].values[:] = 0.0
    film.params["head.W"].values = wf @ w
    film.params["head.b"].values = wf @ b + bf

    x = rng.normal(size=(12, 2))
    t = rng.uniform(0.0, 4.0, size=(12, 1))
    h = lora._backbone(lora._constants(), ad.tensor(x), False, None).values
    f_static = (h @ w.T + b) @ wf[0] + bf[0]
    worst_eq = max(float(np.max(np.abs(lora.log_hazard_matrix(x, t)[:, 0] - f_static))),
                   float(np.max(np.abs(film.log_hazard_matrix(x, t)[:, 0] - f_static))))
    assert worst_eq < 1e-12
    _report(9, f"cache gap {worst_cache:.2e}, head-equivalence gap "
               f"{worst_eq:.2e}")


# -- 10 ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_end_to_end_smoke(tmp_path):
    rng = np.random.default_rng(100)
    n = 500
    x1 = rng.normal(size=n)
    x2 = rng.uniform(-1, 1, size=n)
    t_event = rng.exponential(1.0, size=n) * np.exp(-0.4 * x1)
    t_cens = rng.exponential(2.5, size=n)
    data = SurvivalData(np.column_stack([x1, x2]), np.minimum(t_event, t_cens),
                        (t_event <= t_cens).astype(int), ("x1", "x2"))
    from quadsurv.data import save_csv
    save_csv(data, tmp_path / "train.csv")
    save_csv(data.subset(np.arange(0, n, 2)), tmp_path / "test.csv")

    config = {"k_nodes": 8, "hidden": [16, 16], "rank": 4, "activation": "gelu",
              "max_epochs": 15, "batch_size": 128, "val_grid_points": 32,
              "seed": 0}
    import json
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["train", str(tmp_path / "config.json"),
                     str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["evaluate", str(tmp_path / "run" / "checkpoint.json"),
                     str(tmp_path / "test.csv"), str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for block in report["horizons"].values():
        assert math.isfinite(block["ibs"])
        assert math.isfinite(block["ibll"])
        assert block["ctd"] is None or math.isfinite(block["ctd"])
    assert 0.0 <= report["dcal_p"] <= 1.0
    _report(10, f"CSV -> train -> evaluate smoke complete; "
                f"dcal_p {report['dcal_p']:.3f}, "
                f"full-horizon C_td {report['horizons']['full']['ctd']:.3f}")
