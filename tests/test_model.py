"""Hazard-network heads: values, caching, equivalences, serialization."""

import copy
import math
import time
import tracemalloc
import types

import numpy as np
import pytest

from quadsurv import autodiff as ad
from quadsurv import model as model_module
from quadsurv.errors import ContractError, ShapeError
from quadsurv.model import FittedModel, HazardModel, ModelConfig
from quadsurv.quadrature import build_rule, cumulative_hazard
from quadsurv.training import nll_loss


def make_model(conditioning, input_dim=2, hidden=(8, 8), activation="tanh",
               seed=0, **kw):
    cfg = ModelConfig(input_dim=input_dim, hidden=hidden, activation=activation,
                      conditioning=conditioning, rank=kw.pop("rank", 3),
                      time_embed_dim=kw.pop("time_embed_dim", 6),
                      modulation_hidden=kw.pop("modulation_hidden", 8), **kw)
    return HazardModel(cfg, np.random.default_rng(seed))


# --- basic value contracts -----------------------------------------------------

def test_lora_with_zero_adapter_is_time_constant():
    model = make_model("lora")
    # freshly initialized adapters have U = 0, so time cannot enter
    x = np.array([0.4, -1.2])
    vals = {model.log_hazard(x, t) for t in (0.0, 0.5, 1.7, 9.0)}
    assert max(vals) - min(vals) < 1e-14


def test_zeroed_final_layer_returns_bias():
    model = make_model("film")
    model.params["head.W"].values[:] = 0.0
    model.params["head.b"].values[:] = 1.75
    for t in (0.0, 1.0, 3.5):
        assert abs(model.log_hazard(np.array([1.0, 2.0]), t) - 1.75) < 1e-15


def test_hand_constructed_one_layer_net():
    cfg = ModelConfig(input_dim=2, hidden=(2,), activation="tanh",
                      conditioning="concat")
    model = HazardModel(cfg, np.random.default_rng(0))
    model.params["backbone.0.W"].values[:] = np.array([[1.0, -1.0, 0.5],
                                                       [0.0, 2.0, -0.25]])
    model.params["backbone.0.b"].values[:] = np.array([0.1, -0.2])
    model.params["head.W"].values[:] = np.array([[3.0, -2.0]])
    model.params["head.b"].values[:] = np.array([0.05])
    x = np.array([0.7, -0.3])
    t = 1.3
    pre = np.array([0.7 * 1.0 + (-0.3) * (-1.0) + 1.3 * 0.5 + 0.1,
                    0.7 * 0.0 + (-0.3) * 2.0 + 1.3 * (-0.25) - 0.2])
    expected = 3.0 * math.tanh(pre[0]) - 2.0 * math.tanh(pre[1]) + 0.05
    assert abs(model.log_hazard(x, t) - expected) < 1e-12


def test_wrong_covariate_dimension_raises():
    model = make_model("lora")
    with pytest.raises(ShapeError):
        model.log_hazard(np.array([1.0, 2.0, 3.0]), 1.0)
    x = np.zeros((3, 2))
    for cond in ("concat", "film", "lora"):
        model = make_model(cond)
        for times in (np.ones((4, 5)), np.ones((3, 5, 2))):
            with pytest.raises(ShapeError):
                model.log_hazard_matrix(x, times)


def test_hazard_strictly_positive():
    rng = np.random.default_rng(2)
    for cond in ("concat", "film", "lora"):
        model = make_model(cond, seed=5)
        for _ in range(20):
            x = rng.normal(size=2)
            t = float(rng.uniform(0, 10))
            assert math.exp(model.log_hazard(x, t)) > 0.0


# --- node evaluation and caching --------------------------------------------------

@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_cached_nodes_match_naive_loop(cond):
    model = make_model(cond, seed=3)
    _randomize(model, seed=13)
    rule = build_rule(12)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.normal(size=2)
        t = float(rng.uniform(0.1, 5.0))
        cached = model.log_hazard_at_nodes(x, t, rule)
        naive = np.array([model.log_hazard(x, t * tau) for tau in rule.unit_nodes])
        assert np.max(np.abs(cached - naive)) < 1e-12


def test_single_node_rule_equals_log_hazard():
    model = make_model("lora", seed=9)
    rule = build_rule(1)
    x = np.array([0.2, 0.8])
    vals = model.log_hazard_at_nodes(x, 1.0, rule)
    assert len(vals) == 1
    assert abs(vals[0] - model.log_hazard(x, float(rule.unit_nodes[0]))) < 1e-15


def _randomize(model, seed):
    rng = np.random.default_rng(seed)
    for p in model.params.values():
        p.values = rng.normal(0, 0.4, size=p.values.shape)


# --- survival identities -------------------------------------------------------------

def test_survival_at_zero_is_one():
    model = make_model("lora", seed=1)
    rule = build_rule(8)
    _, _, surv = model.curves(np.zeros((1, 2)), np.array([0.0]), rule)
    assert surv[0, 0] == 1.0


def test_constant_hazard_survival_closed_form():
    model = make_model("concat", hidden=(4,))
    model.params["head.W"].values[:] = 0.0
    c = 0.7
    model.params["head.b"].values[:] = math.log(c)
    rule = build_rule(6)
    grid = np.array([0.5, 1.0, 2.0])
    _, _, surv = model.curves(np.array([[1.0, -1.0]]), grid, rule)
    for j, t in enumerate(grid):
        assert abs(surv[0, j] - math.exp(-c * t)) < 1e-12


def test_neg_log_survival_equals_cumulative_hazard():
    model = make_model("film", seed=8)
    _randomize(model, seed=21)
    rule = build_rule(9)
    x = np.array([0.5, -0.7])
    grid = np.array([0.3, 1.1, 2.4])
    _, _, surv = model.curves(x[None, :], grid, rule)
    for j, t in enumerate(grid):
        lam_int = cumulative_hazard(
            rule, lambda u: math.exp(model.log_hazard(x, float(u))), t)
        assert abs(-math.log(surv[0, j]) - lam_int) < 1e-12


def test_hazard_curve_consistency_and_contract():
    model = make_model("lora", seed=6)
    rule = build_rule(7)
    x = np.array([[0.1, 0.2]])
    grid = np.linspace(0.0, 3.0, 20)
    lam, ch, surv = (a[0] for a in model.curves(x, grid, rule))
    np.testing.assert_allclose(surv, np.exp(-ch), atol=1e-14)
    assert surv[0] == 1.0
    # pointwise oracle: the extended-precision K-node sum of exp f
    for j in (3, 11, 19):
        ref = cumulative_hazard(
            rule, lambda u: math.exp(model.log_hazard(x[0], float(u))), grid[j])
        assert abs(ch[j] - ref) < 1e-12
    with pytest.raises(ContractError):
        model.curves(x, grid[::-1], rule)


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_curves_chunks_stitch(cond, batchnorm, monkeypatch):
    """One grid point per chunk gives the curves of the default chunking."""
    model = make_model(cond, seed=2, batchnorm=batchnorm, time_scale=1.5)
    _randomize(model, seed=5)
    for st in model.bn_states:
        st.running_var = np.full_like(st.running_var, 1.3)
    rule = build_rule(15)
    x = np.random.default_rng(3).normal(size=(40, 2))
    grid = np.linspace(0.0, 4.0, 30)
    lam, ch, surv = model.curves(x, grid, rule)
    monkeypatch.setattr(model_module, "CHUNK_CELLS", 1)
    lam1, ch1, surv1 = model.curves(x, grid, rule)
    np.testing.assert_allclose(lam1, lam, rtol=1e-13, atol=0)
    np.testing.assert_allclose(ch1, ch, rtol=1e-13, atol=0)
    np.testing.assert_allclose(surv1, surv, rtol=0, atol=1e-13)
    assert np.all(surv1[:, 0] == 1.0)


def test_concat_curves_memory_bounded():
    """The concat curves of 1000 subjects x 100 points (K = 15) stay in
    bounded chunks: all grid points in one pass peaked above 1.1 GB."""
    model = make_model("concat", input_dim=1, hidden=(32, 32))
    x = np.random.default_rng(0).normal(size=(1000, 1))
    tracemalloc.start()
    try:
        model.curves(x, np.linspace(0.01, 3.0, 100), build_rule(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400e6


# --- head equivalence at zero modulation ------------------------------------------------

def test_heads_coincide_at_zero_modulation():
    """Zero-rank-update, identity FiLM, and a static affine+linear head all
    compute the same function when their parameters are matched."""
    rng = np.random.default_rng(17)
    d, d_h = 2, 6
    lora = make_model("lora", input_dim=d, hidden=(8, d_h), seed=23)
    _randomize(lora, seed=31)
    lora.params["lora.U"].values[:] = 0.0  # kill the time branch

    w = lora.params["lora.W"].values
    b = lora.params["lora.b"].values
    wf = lora.params["head.W"].values
    bf = lora.params["head.b"].values

    film = make_model("film", input_dim=d, hidden=(8, d_h), seed=23)
    for name in ("backbone.0.W", "backbone.0.b", "backbone.1.W", "backbone.1.b"):
        film.params[name].values = lora.params[name].values.copy()
    # identity modulation: generator weights zero, gamma bias 1, beta bias 0
    film.params["film.gamma.W"].values[:] = 0.0
    film.params["film.gamma.b"].values[:] = 1.0
    film.params["film.beta.W"].values[:] = 0.0
    film.params["film.beta.b"].values[:] = 0.0
    # fold the static affine into the film final linear: w_f W, w_f b + b_f
    film.params["head.W"].values = wf @ w
    film.params["head.b"].values = wf @ b + bf

    xs = rng.normal(size=(12, d))
    ts = rng.uniform(0, 4, size=12)
    for x, t in zip(xs, ts):
        f_lora = lora.log_hazard(x, float(t))
        f_film = film.log_hazard(x, float(t))
        h = lora._eval_backbone(x[None, :])[0]
        f_static = float((wf @ (w @ h + b) + bf)[0])  # static reference head
        assert abs(f_lora - f_static) < 1e-12
        assert abs(f_film - f_static) < 1e-12


def test_film_identity_modulation_is_time_independent():
    film = make_model("film", seed=2)
    film.params["film.gamma.W"].values[:] = 0.0
    film.params["film.gamma.b"].values[:] = 1.0
    film.params["film.beta.W"].values[:] = 0.0
    film.params["film.beta.b"].values[:] = 0.0
    x = np.array([0.3, 0.9])
    vals = {film.log_hazard(x, t) for t in (0.0, 1.0, 2.5, 7.0)}
    assert max(vals) - min(vals) < 1e-14


# --- recorded path equals evaluation path -----------------------------------------------

@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_recorded_forward_matches_eval_forward(cond):
    model = make_model(cond, seed=12)
    _randomize(model, seed=43)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 2))
    times = rng.uniform(0.05, 3.0, size=(4, 6))
    recorded = model.forward_times_recorded(x, times, training=False)
    evaluated = model.log_hazard_matrix(x, times)
    assert np.max(np.abs(recorded.values - evaluated)) < 1e-12


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_grid_curves_match_per_subject_forward(cond, batchnorm):
    """The factorised shared-grid path computes the per-subject forward."""
    model = make_model(cond, seed=14, batchnorm=batchnorm, time_scale=2.5)
    _randomize(model, seed=44)
    rng = np.random.default_rng(5)
    for st in model.bn_states:
        st.running_mean = rng.normal(0.0, 0.5, size=st.running_mean.shape)
        st.running_var = rng.uniform(0.5, 2.0, size=st.running_var.shape)
    n, rule = 6, build_rule(7)
    x = rng.normal(size=(n, 2))
    grid = np.linspace(0.0, 3.0, 9)
    lam, cumhaz, _ = model.curves(x, grid, rule)

    lam_ref = np.exp(model.log_hazard_matrix(x, np.broadcast_to(grid, (n, 9))))
    np.testing.assert_allclose(lam, lam_ref, rtol=1e-12, atol=0.0)
    node_times = np.broadcast_to(np.outer(grid, rule.unit_nodes).reshape(-1),
                                 (n, 9 * rule.order))
    lam_nodes = np.exp(model.log_hazard_matrix(x, node_times)).reshape(n, 9, -1)
    np.testing.assert_allclose(cumhaz, grid / 2.0 * (lam_nodes @ rule.weights),
                               rtol=1e-12, atol=0.0)


def _reference_forward(model, p, x, times, training=False, rng=None):
    """The unfactorised per-subject film and low-rank heads: tile h, form
    gamma * h + beta or W h + b + U (s * V h), then apply the head affine."""
    b, r = times.shape
    h = model._backbone(p, ad.tensor(x), training, rng)
    t_col = ad.tensor(times.reshape(-1, 1))
    if model.config.conditioning == "film":
        gamma, beta = model._modulation(p, t_col)
        z = ad.add(ad.mul(gamma, ad.tile_rows(h, r)), beta)
    else:
        wh = ad.affine(p["lora.W"], p["lora.b"], h)
        vh = ad.linear(p["lora.V"], h)
        s = model._modulation(p, t_col)
        z = ad.add(ad.tile_rows(wh, r),
                   ad.linear(p["lora.U"], ad.mul(s, ad.tile_rows(vh, r))))
    return ad.reshape(ad.affine(p["head.W"], p["head.b"], z), (b, r))


def _assert_rel_close(actual, expected, rtol=1e-12):
    scale = max(float(np.max(np.abs(expected))), np.finfo(float).tiny)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


@pytest.mark.parametrize("size", [((8, 8), 3), ((64, 64), 8)], ids=["8x8", "64x64"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("cond", ["film", "lora"])
def test_factorised_forward_matches_unfactorised_reference(cond, batchnorm,
                                                           dropout, size):
    """Recorded forward, loss and every gradient equal the unfactorised heads."""
    hidden, rank = size
    model = make_model(cond, hidden=hidden, rank=rank, batchnorm=batchnorm,
                       dropout=dropout, time_scale=2.5, seed=15)
    _randomize(model, seed=45)
    reference = copy.deepcopy(model)
    reference._forward = types.MethodType(_reference_forward, reference)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 2))
    times = rng.uniform(0.05, 3.0, size=10)
    events = rng.integers(0, 2, size=10)
    rule = build_rule(5)

    f, f_ref = (m.forward_times_recorded(x, np.outer(times, rule.unit_nodes),
                                         training=True, rng=np.random.default_rng(7))
                for m in (model, reference))
    _assert_rel_close(f.values, f_ref.values)
    losses = []
    for m in (model, reference):
        loss = nll_loss(m, rule, x, times, events, training=True,
                        rng=np.random.default_rng(8))
        ad.zero_grad(m.params.values())
        ad.backward(loss)
        losses.append(loss.values)
    _assert_rel_close(losses[0], losses[1])
    # one scale for the whole gradient: with batchnorm the gradient of each
    # pre-normalisation bias is zero up to round-off in both forms
    grads, grads_ref = (np.concatenate([p.grad.ravel() for p in m.params.values()])
                        for m in (model, reference))
    _assert_rel_close(grads, grads_ref)


# --- cost asymmetry ----------------------------------------------------------------------

def test_lora_node_cost_sublinear_concat_linear():
    d = 8
    lora = make_model("lora", input_dim=d, hidden=(256,) * 4, rank=8,
                      time_embed_dim=16, modulation_hidden=32, seed=0)
    concat = make_model("concat", input_dim=d, hidden=(256,) * 4, seed=0)
    r1, r10 = build_rule(1), build_rule(10)
    x = np.random.default_rng(0).normal(size=d)

    def clock(model, rule, reps=30):
        model.log_hazard_at_nodes(x, 1.0, rule)  # warm up
        t0 = time.perf_counter()
        for _ in range(reps):
            model.log_hazard_at_nodes(x, 1.0, rule)
        return time.perf_counter() - t0

    lora_ratio = clock(lora, r10) / clock(lora, r1)
    concat_ratio = clock(concat, r10) / clock(concat, r1)
    assert lora_ratio < 3.0
    assert concat_ratio > lora_ratio


# --- serialization -------------------------------------------------------------------------

@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_state_roundtrip_preserves_predictions(cond):
    # concat divides time by time_scale, so only a scale != 1 shows it dropped
    for time_scale in (1.0, 2.5):
        model = make_model(cond, seed=4, batchnorm=True, time_scale=time_scale)
        _randomize(model, seed=7)
        arch = model.config.as_dict()
        arrays = model.copy_state()
        clone = HazardModel.from_architecture(arch, arrays)
        assert clone.config == model.config
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2))
        times = rng.uniform(0, 2, size=(5, 3))
        np.testing.assert_array_equal(model.log_hazard_matrix(x, times),
                                      clone.log_hazard_matrix(x, times))


def test_checkpoint_shape_mismatch_detected():
    model = make_model("lora")
    arrays = model.copy_state()
    arrays["head.W"] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        HazardModel.from_architecture(model.config.as_dict(), arrays)


def test_fitted_model_wraps_standardization():
    class Shift:
        def transform(self, x):
            return x - 1.0

    model = make_model("lora", input_dim=1, seed=3)
    fitted = FittedModel(model=model, rule=build_rule(5), scaler=Shift())
    grid = np.linspace(0.0, 1.0, 5)
    lam, ch, surv = fitted.curves_matrix(np.array([[1.0]]), grid)
    lam2, ch2, surv2 = model.curves(np.array([[0.0]]), grid, build_rule(5))
    np.testing.assert_array_equal(lam, lam2)
    np.testing.assert_array_equal(surv, surv2)


def test_lora_rank_must_be_below_width():
    with pytest.raises(Exception) as exc:
        ModelConfig(input_dim=2, hidden=(8,), conditioning="lora", rank=8)
    assert "rank" in str(exc.value)
