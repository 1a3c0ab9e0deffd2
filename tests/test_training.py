"""Loss values, optimizer arithmetic, the training loop, random search."""

import json
import math

import numpy as np
import pytest

from quadsurv import autodiff as ad
from quadsurv import metrics as mx
from quadsurv.data import SurvivalData
from quadsurv.errors import DegenerateDataError, NumericDomainError, UsageError
from quadsurv.model import FittedModel, HazardModel, ModelConfig
from quadsurv.quadrature import build_rule
from quadsurv.simulation import (GeneratorSpec, evaluation_grid, generate,
                                 l1_error)
from quadsurv.training import (AdamWState, SearchSpace, TrainingConfig,
                               TrialRecord, _validation_metrics, adamw_step,
                               cosine_lr, nll_loss, nll_terms, random_search,
                               train, trial_sort_key, write_log_ndjson)

SIM_KW = dict(hidden=(32, 32), activation="tanh", conditioning="lora",
              learning_rate=1e-2, weight_decay=1e-6, batch_size=256,
              val_grid_points=48)


def constant_hazard_model(c, input_dim=1, conditioning="concat"):
    cfg = ModelConfig(input_dim=input_dim, hidden=(4,), activation="tanh",
                      conditioning=conditioning, rank=2, time_embed_dim=4,
                      modulation_hidden=4)
    model = HazardModel(cfg, np.random.default_rng(0))
    model.params["head.W"].values[:] = 0.0
    model.params["head.b"].values[:] = math.log(c)
    return model


# --- nll_loss -----------------------------------------------------------------

def test_censored_subject_constant_hazard():
    model = constant_hazard_model(0.8)
    rule = build_rule(6)
    x = np.array([[0.3]])
    loss = nll_loss(model, rule, x, np.array([2.5]), np.array([0]))
    assert abs(float(loss.values) - 0.8 * 2.5) < 1e-12


def test_event_subject_constant_hazard():
    c, o = 0.8, 2.5
    model = constant_hazard_model(c)
    rule = build_rule(6)
    loss = nll_loss(model, rule, np.array([[0.3]]), np.array([o]), np.array([1]))
    assert abs(float(loss.values) - (-math.log(c) + c * o)) < 1e-12


def test_loss_matches_high_order_reference_within_bound():
    # a random smooth model: the K-node loss must track the K=40 reference
    rng = np.random.default_rng(3)
    cfg = ModelConfig(input_dim=2, hidden=(8,), activation="tanh",
                      conditioning="lora", rank=2, time_embed_dim=4,
                      modulation_hidden=4)
    model = HazardModel(cfg, rng)
    for p in model.params.values():
        p.values = rng.normal(0, 0.3, size=p.values.shape)
    x = rng.normal(size=(16, 2))
    times = rng.uniform(0.1, 2.0, size=16)
    events = rng.integers(0, 2, size=16)
    loss_k = float(nll_loss(model, build_rule(6), x, times, events).values)
    loss_ref = float(nll_loss(model, build_rule(40), x, times, events).values)
    assert abs(loss_k - loss_ref) < 1e-6


def test_corollary_identity_per_subject():
    # the event term cancels exactly, so per-subject loss differences equal
    # cumulative-hazard differences
    rng = np.random.default_rng(9)
    cfg = ModelConfig(input_dim=2, hidden=(8,), activation="softplus",
                      conditioning="film", time_embed_dim=4, modulation_hidden=4)
    model = HazardModel(cfg, rng)
    for p in model.params.values():
        p.values = rng.normal(0, 0.3, size=p.values.shape)
    x = rng.normal(size=(12, 2))
    times = rng.uniform(0.05, 3.0, size=12)
    events = rng.integers(0, 2, size=12)
    ev_k, ch_k = nll_terms(model, build_rule(5), x, times, events)
    ev_r, ch_r = nll_terms(model, build_rule(40), x, times, events)
    np.testing.assert_array_equal(ev_k, ev_r)
    loss_diff = np.abs((ch_k - ev_k) - (ch_r - ev_r))
    lambda_diff = np.abs(ch_k - ch_r)
    np.testing.assert_allclose(loss_diff, lambda_diff, atol=1e-12)


def test_loss_invariant_to_subject_order_within_batch():
    rng = np.random.default_rng(21)
    cfg = ModelConfig(input_dim=2, hidden=(8,), activation="tanh",
                      conditioning="lora", rank=2, time_embed_dim=4,
                      modulation_hidden=4)
    model = HazardModel(cfg, rng)
    x = rng.normal(size=(16, 2))
    times = rng.uniform(0.1, 2.0, size=16)
    events = rng.integers(0, 2, size=16)
    rule = build_rule(5)
    base = float(nll_loss(model, rule, x, times, events).values)
    perm = rng.permutation(16)
    shuffled = float(nll_loss(model, rule, x[perm], times[perm],
                              events[perm]).values)
    assert abs(base - shuffled) < 1e-12


def test_nonfinite_loss_identifies_subject():
    model = constant_hazard_model(1.0)
    model.params["backbone.0.W"].values[:] = 1.0
    model.params["head.W"].values[:] = 200.0  # saturated tanh drives f to 800
    x = np.array([[0.0], [0.0], [40.0]])  # only the huge covariate overflows exp
    with pytest.raises(Exception) as exc:
        nll_loss(model, build_rule(4), x, np.array([1.0, 1.0, 1.0]),
                 np.array([1, 1, 1]))
    assert "subject index 2" in str(exc.value)


def test_overflowing_validation_hazard_gives_infinite_val_loss():
    model = constant_hazard_model(1.0)
    model.params["head.b"].values[:] = 800.0  # exp overflows at every node
    x = np.zeros((6, 1))
    times = np.linspace(0.5, 3.0, 6)
    events = np.array([1, 0, 1, 1, 0, 1])
    rule = build_rule(4)
    with pytest.raises(NumericDomainError):
        nll_terms(model, rule, x, times, events)
    ghat = mx.censoring_survival(times, events)
    with np.errstate(over="ignore"):
        val_loss, _, _ = _validation_metrics(model, rule, x, times, events, ghat,
                                             np.linspace(0.5, 2.5, 8))
    assert val_loss == math.inf


# --- optimizer -----------------------------------------------------------------

def test_adamw_zero_grad_zero_decay_is_identity():
    p = ad.parameter([1.5, -2.0])
    state = AdamWState()
    adamw_step({"p": p}, {"p": np.zeros(2)}, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.values, [1.5, -2.0])


def test_adamw_single_step_hand_arithmetic():
    p = ad.parameter([1.0])
    g = np.array([0.5])
    state = AdamWState()
    adamw_step({"p": p}, {"p": g}, state, lr=0.1, weight_decay=0.0)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = 1.0 - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
    assert abs(p.values[0] - expected) < 1e-15


def test_adamw_decay_only():
    p = ad.parameter([2.0])
    state = AdamWState()
    adamw_step({"p": p}, {"p": np.zeros(1)}, state, lr=0.01, weight_decay=0.1)
    assert abs(p.values[0] - 2.0 * (1 - 0.001)) < 1e-15


def test_cosine_schedule_endpoints():
    assert cosine_lr(1e-2, 0, 200) == 1e-2
    assert abs(cosine_lr(1e-2, 100, 200) - 5e-3) < 1e-18
    assert 0 < cosine_lr(1e-2, 199, 200) < 1e-4


# --- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(UsageError):
        TrainingConfig(k_nodes=0)
    with pytest.raises(UsageError):
        TrainingConfig(k_nodes=65)
    with pytest.raises(UsageError):
        TrainingConfig(batch_size=0)
    with pytest.raises(UsageError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(UsageError):
        TrainingConfig(val_fraction=1.0)
    for grad_clip in (-1.0, 0.0):
        with pytest.raises(UsageError):
            TrainingConfig(grad_clip=grad_clip)
    with pytest.raises(UsageError):
        TrainingConfig(val_grid_points=1)
    with pytest.raises(UsageError):
        TrainingConfig(seed=-1)
    with pytest.raises(UsageError):
        TrainingConfig.from_dict({"seed": -3})
    with pytest.raises(UsageError):
        TrainingConfig.from_dict({"lora_position": "backbone.1"})


def test_config_json_roundtrip():
    cfg = TrainingConfig(k_nodes=7, hidden=(64, 32), seed=11)
    restored = TrainingConfig.from_dict(json.loads(json.dumps(cfg.as_dict())))
    assert restored == cfg
    with pytest.raises(UsageError):
        TrainingConfig.from_dict({"nodes": 3})


def test_model_config_carries_every_model_field():
    cfg = TrainingConfig(hidden=(7, 5), activation="tanh", conditioning="film", rank=3,
                         time_embed_dim=6, modulation_hidden=9, batchnorm=True,
                         dropout=0.25)
    assert cfg.model_config(4, 2.5) == ModelConfig(
        input_dim=4, hidden=(7, 5), activation="tanh", conditioning="film", rank=3,
        time_embed_dim=6, modulation_hidden=9, batchnorm=True, dropout=0.25,
        time_scale=2.5)


# --- train loop -------------------------------------------------------------------

def small_dataset(seed=0, n=120, rate=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    t = rng.exponential(1.0 / rate, size=n)
    c = rng.exponential(2.0, size=n)
    return SurvivalData(x, np.minimum(t, c), (t <= c).astype(int), ("x",))


def test_all_censored_rejected():
    data = small_dataset()
    data = SurvivalData(data.x, data.time, np.zeros(len(data), dtype=int), ("x",))
    with pytest.raises(DegenerateDataError):
        train(TrainingConfig(max_epochs=1), data)


def test_train_returns_log_and_best_epoch():
    cfg = TrainingConfig(max_epochs=4, batch_size=32, hidden=(8,), rank=2,
                         activation="tanh", k_nodes=5, val_grid_points=16)
    res = train(cfg, small_dataset())
    assert len(res.log) == 4
    for rec in res.log:
        assert set(rec) >= {"epoch", "train_loss", "val_loss", "val_ctd", "lr"}
        assert math.isfinite(rec["train_loss"])
    assert 0 <= res.best_epoch < 4
    assert res.log[1]["lr"] < res.log[0]["lr"]


def test_train_deterministic_given_seed():
    cfg = TrainingConfig(max_epochs=3, batch_size=32, hidden=(8,), rank=2,
                         activation="tanh", k_nodes=5, val_grid_points=16, seed=7)
    r1 = train(cfg, small_dataset())
    r2 = train(cfg, small_dataset())
    assert r1.log == r2.log
    s1, s2 = r1.model.state_arrays(), r2.model.state_arrays()
    for name in s1:
        np.testing.assert_array_equal(s1[name], s2[name])


def test_divergence_aborts_with_last_finite_snapshot():
    cfg = TrainingConfig(max_epochs=5, batch_size=64, hidden=(8,), rank=2,
                         activation="tanh", k_nodes=5, learning_rate=1e6,
                         grad_clip=1e12, val_grid_points=16)
    res = train(cfg, small_dataset())
    # the reason keeps the subject that _locate_subject found and the op
    assert res.abort_reason.startswith("non-finite loss (subject index ")
    assert "non-finite values produced by" in res.abort_reason
    for arr in res.model.state_arrays().values():
        assert np.all(np.isfinite(arr))


def test_loss_decreases_on_crossing_hazards_data():
    # epoch-10 training loss below epoch-1 in at least 19 of 20 seeds
    wins = 0
    for seed in range(20):
        sim = generate(GeneratorSpec(family="scenario1", n_train=600, n_test=10),
                       seed)
        cfg = TrainingConfig(seed=seed, max_epochs=10, val_grid_points=16)
        res = train(cfg, sim.train)
        wins += res.log[9]["train_loss"] < res.log[0]["train_loss"]
    assert wins >= 19


def test_write_log_ndjson_schema(tmp_path):
    cfg = TrainingConfig(max_epochs=2, batch_size=32, hidden=(8,), rank=2,
                         activation="tanh", k_nodes=4, val_grid_points=16)
    res = train(cfg, small_dataset())
    path = tmp_path / "log.ndjson"
    write_log_ndjson(res.log, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "train_loss", "val_loss", "val_ctd", "lr"}


def test_log_ndjson_is_strict_json(tmp_path):
    log = [{"epoch": 0, "train_loss": 2.5, "val_loss": math.inf, "val_ctd": None,
            "lr": 0.01, "val_ibs": 0.2, "clipped_steps": 0},
           {"epoch": 1, "train_loss": 1.5, "val_loss": 1.25, "val_ctd": 0.625,
            "lr": 0.005, "val_ibs": 0.1, "clipped_steps": 1}]
    path = tmp_path / "log.ndjson"
    write_log_ndjson(log, path)

    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    recs = [json.loads(line, parse_constant=reject)
            for line in path.read_text().splitlines()]
    assert [set(r) for r in recs] == [{"epoch", "train_loss", "val_loss",
                                       "val_ctd", "lr"}] * 2
    assert recs[0]["val_loss"] is None and recs[0]["train_loss"] == 2.5
    assert recs[1]["val_loss"] == 1.25 and recs[1]["val_ctd"] == 0.625


@pytest.mark.slow
def test_scenario1_hazard_recovery():
    """Known red: the 0.10 bound is unattainable on this generator.

    The crossing-hazards mechanism censors ~42%, so under 1% of the steep
    group remains at risk over the last quarter of the evaluation range;
    that region alone contributes ~0.10 of conditional hazard L1 from a
    handful of events.  Measured values across 14 protocol variants sit at
    0.15-0.5.  Kept at the stated bound deliberately; see the decisions
    ledger for the full analysis.
    """
    sim = generate(GeneratorSpec(family="scenario1"), 0)
    cfg = TrainingConfig(seed=0, k_nodes=10)
    res = train(cfg, sim.train)
    fitted = FittedModel(res.model, res.rule, res.scaler)
    grid = evaluation_grid(sim.train.time)
    _, _, err_lam = l1_error(fitted, sim.truth, sim.test.x[:, 0], grid)
    assert err_lam < 0.10


@pytest.mark.slow
def test_uninformative_covariate_exponential_rate_recovery():
    rng = np.random.default_rng(5)
    n = 2000
    t = rng.exponential(1.0, size=n)
    data = SurvivalData(np.zeros((n, 1)), t, np.ones(n, dtype=int), ("x",))
    mle = n / t.sum()
    cfg = TrainingConfig(seed=0, k_nodes=10, max_epochs=100, **SIM_KW)
    res = train(cfg, data)
    fitted = FittedModel(res.model, res.rule, res.scaler)
    grid = np.linspace(0.1, 1.0, 40)
    lam, _, _ = fitted.curves_matrix(np.zeros((1, 1)), grid)
    assert abs(mle - 1.0) < 0.1  # oracle sanity
    assert np.max(np.abs(lam[0] - 1.0)) < 0.1


# --- random search ------------------------------------------------------------------

def test_search_space_respects_ranges():
    space = SearchSpace()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s = space.sample(rng)
        assert len(s["hidden"]) in (2, 3, 4)
        assert s["hidden"][0] in (32, 64, 128, 256)
        assert 1e-4 <= s["learning_rate"] <= 1e-2
        assert 1e-8 <= s["weight_decay"] <= 1e-3
        assert s["dropout"] in (0.0, 0.1, 0.3, 0.5)
        assert s["batch_size"] in (64, 128, 256)
        assert s["batchnorm"] in (True, False)


def test_search_single_trial_returns_it():
    space = SearchSpace(n_layers=(2,), hidden=(16,), batch_size=(32,),
                        dropout=(0.0,), batchnorm=(False,))
    base = TrainingConfig(max_epochs=2, k_nodes=4, val_grid_points=16, seed=3)
    best_rec, best_res, records = random_search(space, 1, small_dataset(),
                                                base_config=base)
    assert best_rec.index == 0
    assert len(records) == 1
    assert records[0].error is None


def test_search_reproducible():
    space = SearchSpace(n_layers=(2,), hidden=(16, 32), batch_size=(32,),
                        dropout=(0.0,), batchnorm=(False,))
    base = TrainingConfig(max_epochs=2, k_nodes=4, val_grid_points=16, seed=3)
    rec1, res1, _ = random_search(space, 2, small_dataset(), base_config=base)
    rec2, res2, _ = random_search(space, 2, small_dataset(), base_config=base)
    assert rec1.index == rec2.index
    assert rec1.val_ctd == rec2.val_ctd
    s1, s2 = res1.model.state_arrays(), res2.model.state_arrays()
    for name in s1:
        np.testing.assert_array_equal(s1[name], s2[name])


def test_trial_selection_rule():
    cfg = TrainingConfig()
    a = TrialRecord(0, cfg, val_ctd=0.7, val_ibs=0.2)
    b = TrialRecord(1, cfg, val_ctd=0.6, val_ibs=0.1)
    tie_lo = TrialRecord(2, cfg, val_ctd=0.7, val_ibs=0.15)
    failed = TrialRecord(3, cfg, val_ctd=None, val_ibs=None)
    assert trial_sort_key(a) > trial_sort_key(b)          # higher C_td wins
    assert trial_sort_key(tie_lo) > trial_sort_key(a)     # tie: lower IBS wins
    assert trial_sort_key(failed) < trial_sort_key(b)


def test_failed_trials_are_recorded_and_skipped():
    # learning rate forced enormous in one trial via a crafted space is not
    # possible directly, so use a dataset too small for the val split instead
    space = SearchSpace(n_layers=(2,), hidden=(16,), batch_size=(32,),
                        dropout=(0.0,), batchnorm=(False,))
    base = TrainingConfig(max_epochs=1, k_nodes=4, val_grid_points=16)
    data = small_dataset(n=3)
    try:
        best_rec, _, records = random_search(space, 2, data, base_config=base)
        assert all(r.error is None for r in records) or best_rec is not None
    except DegenerateDataError:
        pass  # every trial failing is also a valid outcome for tiny data
