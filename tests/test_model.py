"""Hazard-network heads: values, caching, equivalences, serialization."""

import copy
import math
import time
import tracemalloc
import types

import numpy as np
import pytest
from scipy.integrate import quad

from quadsurv import autodiff as ad
from quadsurv import cli
from quadsurv import model as model_module
from quadsurv.data import Standardizer
from quadsurv.errors import ContractError, DataError, NumericDomainError, ShapeError
from quadsurv.model import FittedModel, HazardModel, ModelConfig
from quadsurv.quadrature import build_rule
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
    x = np.array([[0.4, -1.2]])
    vals = model.log_hazard_matrix(x, [0.0, 0.5, 1.7, 9.0])
    assert vals.max() - vals.min() < 1e-14


def test_zeroed_final_layer_returns_bias():
    model = make_model("film")
    model.params["head.W"].values[:] = 0.0
    model.params["head.b"].values[:] = 1.75
    vals = model.log_hazard_matrix(np.array([[1.0, 2.0]]), [0.0, 1.0, 3.5])
    assert np.max(np.abs(vals - 1.75)) < 1e-15


def test_hand_constructed_one_layer_net():
    cfg = ModelConfig(input_dim=2, hidden=(2,), activation="tanh",
                      conditioning="concat")
    model = HazardModel(cfg, np.random.default_rng(0))
    model.params["backbone.0.W"].values[:] = np.array([[1.0, -1.0, 0.5],
                                                       [0.0, 2.0, -0.25]])
    model.params["backbone.0.b"].values[:] = np.array([0.1, -0.2])
    model.params["head.W"].values[:] = np.array([[3.0, -2.0]])
    model.params["head.b"].values[:] = np.array([0.05])
    x = np.array([[0.7, -0.3]])
    t = 1.3
    pre = np.array([0.7 * 1.0 + (-0.3) * (-1.0) + 1.3 * 0.5 + 0.1,
                    0.7 * 0.0 + (-0.3) * 2.0 + 1.3 * (-0.25) - 0.2])
    expected = 3.0 * math.tanh(pre[0]) - 2.0 * math.tanh(pre[1]) + 0.05
    assert abs(model.log_hazard_matrix(x, [[t]])[0, 0] - expected) < 1e-12


def test_wrong_covariate_dimension_raises():
    model = make_model("lora")
    with pytest.raises(ShapeError):
        model.log_hazard_matrix(np.array([[1.0, 2.0, 3.0]]), [[1.0]])
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
        x = rng.normal(size=(20, 2))
        t = rng.uniform(0, 10, size=(20, 1))
        assert np.all(np.exp(model.log_hazard_matrix(x, t)) > 0.0)


# --- node evaluation and caching --------------------------------------------------

@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_cached_nodes_match_naive_loop(cond):
    """The loss's (b, K) node times per subject give the log-hazards of the
    same times on one shared grid, where every subject sees all b K times."""
    model = make_model(cond, seed=3)
    _randomize(model, seed=13)
    rule = build_rule(12)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 2))
    times = np.outer(rng.uniform(0.1, 5.0, size=5), rule.unit_nodes)
    per_subject = model.log_hazard_matrix(x, times)
    shared = model.log_hazard_matrix(x, times.ravel()).reshape(5, 5, -1)
    assert np.max(np.abs(per_subject - shared[np.arange(5), np.arange(5)])) < 1e-12


def test_single_node_rule_equals_log_hazard():
    model = make_model("lora", seed=9)
    rule = build_rule(1)
    x = np.array([[0.2, 0.8]])
    vals = model.log_hazard_matrix(x, rule.unit_nodes[None, :])[0]
    assert len(vals) == 1
    assert abs(vals[0] - model.log_hazard_matrix(x, rule.unit_nodes)[0, 0]) < 1e-15


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


def _exact_cumhaz(model, x, t):
    """The integral of exp f(x, u) over [0, t] by adaptive quadrature."""
    return quad(lambda u: math.exp(model.log_hazard_matrix([x], [[u]])[0, 0]),
                0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def test_neg_log_survival_equals_cumulative_hazard():
    """-log S is the integral of the hazard, also on a sparse grid, whose
    wide intervals take K nodes each (with m nodes on every interval the
    error at t = 2.4 is about 1e-7)."""
    model = make_model("film", seed=8)
    _randomize(model, seed=21)
    rule = build_rule(9)
    x = np.array([0.5, -0.7])
    grid = np.array([0.3, 1.1, 2.4])
    _, cumhaz, surv = model.curves(x[None, :], grid, rule)
    for j, t in enumerate(grid):
        exact = _exact_cumhaz(model, x, t)
        assert abs(-math.log(surv[0, j]) - exact) < 1e-12
        assert abs(cumhaz[0, j] - exact) < 1e-12 * exact


def test_hazard_curve_consistency_and_contract():
    model = make_model("lora", seed=6)
    rule = build_rule(7)
    x = np.array([[0.1, 0.2]])
    grid = np.linspace(0.0, 3.0, 20)
    lam, ch, surv = (a[0] for a in model.curves(x, grid, rule))
    np.testing.assert_allclose(surv, np.exp(-ch), atol=1e-14)
    assert surv[0] == 1.0
    # pointwise oracle: the integral of exp f
    for j in (3, 11, 19):
        assert abs(ch[j] - _exact_cumhaz(model, x[0], grid[j])) < 1e-12
    with pytest.raises(ContractError):
        model.curves(x, grid[::-1], rule)


def _wavy(cond, seed, time_scale=3.0):
    """A default-shape model with normal(0, 0.3) parameters, except the time
    embedding's initial frequencies: hazards that vary on the grid's scale."""
    model = make_model(cond, input_dim=1, hidden=(32, 32), activation="gelu",
                       rank=8, time_embed_dim=16, modulation_hidden=32,
                       time_scale=time_scale, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name, p in model.params.items():
        if name != "phi.wf":
            p.values = rng.normal(0.0, 0.3, size=p.values.shape)
    return model


def _composite_reference(model, x, grid, per=12):
    """Lambda on ``grid`` by a ``per``-node rule on every grid interval."""
    ref = build_rule(per)
    lower = np.concatenate([[0.0], grid[:-1]])
    width = grid - lower
    times = (lower[:, None] + width[:, None] * ref.unit_nodes).ravel()
    lam = np.exp(model.log_hazard_matrix(x, np.broadcast_to(times, (len(x), len(times)))))
    return np.cumsum(lam.reshape(len(x), len(grid), per) @ ref.weights * width / 2.0,
                     axis=1)


@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_curves_match_composite_reference(cond):
    """At the validation shape (400 subjects, 64 points, K = 15) Lambda is
    within 1e-12 relative of 12 nodes per interval; one K-node rule per point
    on [0, g_j] was off by up to 1e-4 for these film and lora models."""
    model = _wavy(cond, seed=0)
    x = np.random.default_rng(2).normal(size=(400, 1))
    grid = np.linspace(0.02, 3.0, 64)
    _, cumhaz, _ = model.curves(x, grid, build_rule(15))
    ref = _composite_reference(model, x, grid)
    assert np.max(np.abs(cumhaz / ref - 1.0)) < 1e-12


@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_curves_row_count(cond, monkeypatch):
    """Rows of the forward that ``curves`` runs: at the validation shape a
    subject costs 64 points, 4 intervals of K = 15 nodes and 60 of 4, that is
    364 rows instead of 64 (K + 1) = 1024; no grid costs more than K + 1 rows
    per point."""
    rows = []
    log_hazard = HazardModel._log_hazard

    def counted(self, p, x, times, *args, **kwargs):
        rows.append(x.shape[0] * times.shape[-1])
        return log_hazard(self, p, x, times, *args, **kwargs)

    monkeypatch.setattr(HazardModel, "_log_hazard", counted)
    model = make_model(cond, input_dim=1, hidden=(32, 32))
    x = np.random.default_rng(0).normal(size=(400, 1))
    model.curves(x, np.linspace(0.02, 3.0, 64), build_rule(15))
    assert sum(rows) == 400 * 364

    rng = np.random.default_rng(1)
    for k in (1, 2, 5, 9, 15):
        for size in (1, 2, 3, 5, 8):
            grid = np.sort(np.round(rng.uniform(0.0, 10.0, size), 1))
            rows.clear()
            model.curves(x[:7], grid, build_rule(k))
            assert 0 < sum(rows) <= 7 * size * (k + 1)


@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_curves_monotone(cond):
    """Lambda never falls and S never rises and stays in [0, 1], for random
    models and grids: one from 0 (where S = 1), one with repeated points and
    one with a wide first interval."""
    rng = np.random.default_rng(7)
    for seed in range(4):
        model = _wavy(cond, seed, time_scale=rng.uniform(0.5, 3.0))
        x = rng.normal(size=(30, 1))
        rule = build_rule(int(rng.integers(1, 16)))
        grids = [np.linspace(0.0, rng.uniform(1.0, 6.0), 40),
                 np.sort(rng.choice(np.linspace(0.1, 4.0, 12), 30)),
                 np.linspace(2.5, 4.0, 25)]
        for grid in grids:
            _, cumhaz, surv = model.curves(x, grid, rule)
            assert np.all(np.diff(cumhaz, axis=1) >= 0.0)
            assert np.all(np.diff(surv, axis=1) <= 0.0)
            assert np.all((surv >= 0.0) & (surv <= 1.0))
            if grid[0] == 0.0:
                assert np.all(surv[:, 0] == 1.0)


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_curves_chunks_stitch(cond, batchnorm, monkeypatch):
    """The smallest tiles, blocks of at least 4 (K+1) rows, give the curves
    of the default tiling, bit for bit."""
    model = make_model(cond, seed=2, batchnorm=batchnorm, time_scale=1.5)
    _randomize(model, seed=5)
    for st in model.bn_states:
        st.running_var = np.full_like(st.running_var, 1.3)
    rule = build_rule(15)
    x = np.random.default_rng(3).normal(size=(40, 2))
    grid = np.linspace(0.0, 4.0, 30)
    lam, ch, surv = model.curves(x, grid, rule)
    monkeypatch.setattr(model_module, "TILE_CELLS", 1)
    lam1, ch1, surv1 = model.curves(x, grid, rule)
    assert np.array_equal(lam1, lam)
    assert np.array_equal(ch1, ch)
    assert np.array_equal(surv1, surv)
    assert np.all(surv1[:, 0] == 1.0)


@pytest.mark.parametrize("cond", ["film", "lora"])
def test_curves_subject_tiles_agree(cond, monkeypatch):
    """Over random shapes, film and lora curves cut into tiles of a few
    hundred subjects agree with one tile of all of them: lambda and Lambda
    within 1e-12 relative, and so S = exp(-Lambda) within 1e-12 absolute
    (relatively, S moves Lambda times as much).  Not bit for bit: a BLAS
    product can round a row another way for another row count."""
    rng = np.random.default_rng(9)
    subjects = []  # per forward pass
    log_hazard = HazardModel._log_hazard

    def counted(self, p, x, times, *args, **kwargs):
        subjects.append(x.shape[0])
        return log_hazard(self, p, x, times, *args, **kwargs)

    for shape in range(12):
        hidden = [(8, 8), (16,), (32, 32)][shape % 3]
        model = make_model(cond, hidden=hidden, activation="gelu", seed=shape,
                           batchnorm=shape % 2 == 1, time_scale=2.0)
        _randomize(model, seed=shape)
        for st in model.bn_states:
            st.running_var = rng.uniform(0.5, 2.0, size=st.running_var.shape)
        rule = build_rule((7, 15)[shape // 2 % 2])
        n = int(rng.integers(1000, 1500))
        x = rng.normal(size=(n, 2))
        grid = np.sort(rng.uniform(0.0, 4.0, int(rng.integers(5, 40))))
        whole = model.curves(x, grid, rule)
        with monkeypatch.context() as m:
            m.setattr(model_module, "TILE_CELLS", int(rng.integers(200, 500)) * max(hidden))
            m.setattr(HazardModel, "_log_hazard", counted)
            subjects.clear()
            parts = model.curves(x, grid, rule)
        assert 100 <= min(subjects) and max(subjects) < 500  # several tiles
        for part, one in zip(parts[:2], whole[:2]):
            np.testing.assert_allclose(part, one, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(parts[2], whole[2], rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_curves_memory_flat_in_n(cond):
    """Tiles split the subjects for every head: 100,000 subjects x 2 points
    (K = 15) peak far below one pass over all subjects (film 106 MB, lora
    80 MB), and no subjects still give three (0, G) arrays."""
    model = make_model(cond, input_dim=1, hidden=(32, 32))
    rule, grid = build_rule(15), np.array([0.5, 2.0])
    x = np.random.default_rng(0).normal(size=(100_000, 1))
    tracemalloc.start()
    try:
        model.curves(x, grid, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    for arr in model.curves(np.empty((0, 1)), grid, rule):
        assert arr.shape == (0, 2)


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
    ts = rng.uniform(0, 4, size=(12, 1))
    f_lora = lora.log_hazard_matrix(xs, ts)[:, 0]
    f_film = film.log_hazard_matrix(xs, ts)[:, 0]
    h = lora._backbone(lora._constants(), ad.tensor(xs), False, None).values
    f_static = (h @ w.T + b) @ wf[0] + bf[0]  # static reference head
    assert np.max(np.abs(f_lora - f_static)) < 1e-12
    assert np.max(np.abs(f_film - f_static)) < 1e-12


def test_film_identity_modulation_is_time_independent():
    film = make_model("film", seed=2)
    film.params["film.gamma.W"].values[:] = 0.0
    film.params["film.gamma.b"].values[:] = 1.0
    film.params["film.beta.W"].values[:] = 0.0
    film.params["film.beta.b"].values[:] = 0.0
    vals = film.log_hazard_matrix(np.array([[0.3, 0.9]]), [0.0, 1.0, 2.5, 7.0])
    assert vals.max() - vals.min() < 1e-14


# --- finiteness of the output ------------------------------------------------------

@pytest.mark.parametrize("bad, subject", [(math.inf, 2), (math.nan, 0)])
@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_forward_rejects_non_finite_values(cond, bad, subject, monkeypatch):
    """One bad weight of the first layer: relu maps -inf to 0, so an infinite
    weight reaches the output only for the subject whose covariate is
    positive, while NaN reaches every subject.  ``curves`` names the index
    in the whole batch, also from a later tile: with 20 harmless subjects
    ahead of the four, the smallest tiles hold one subject for concat and
    12 for film and lora."""
    model = make_model(cond, hidden=(8,), activation="relu")
    model.params["backbone.0.W"].values[0, 0] = bad
    x = np.array([[-1.0, 0.5], [-2.0, 0.1], [1.0, -0.3], [-0.5, 0.2]])
    times = np.arange(1.0, 13.0).reshape(4, 3) / 4.0
    for t, first in [(times, times[subject, 0]), (times[0], times[0, 0])]:
        with pytest.raises(NumericDomainError) as exc:
            model.forward(model.params, x, t)
        assert str(exc.value) == (f"non-finite log-hazard (subject index {subject}, "
                                  f"time {float(first)!r})")
    with pytest.raises(NumericDomainError, match=rf"\(subject index {subject}[,)]"):
        nll_loss(model, build_rule(4), x, times[:, 0], np.ones(4))
    monkeypatch.setattr(model_module, "TILE_CELLS", 1)
    pad = 20 if bad == math.inf else 0  # x[0] is harmless only for inf
    x = np.vstack([np.repeat(x[:1], 20, axis=0), x])
    with pytest.raises(NumericDomainError) as exc:
        model.curves(x, times[0], build_rule(4))
    assert str(exc.value) == (f"non-finite log-hazard (subject index {pad + subject}, "
                              f"time {float(times[0, 0])!r})")


# --- recorded path equals evaluation path -----------------------------------------------

@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_recorded_forward_matches_eval_forward(cond):
    model = make_model(cond, seed=12)
    _randomize(model, seed=43)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 2))
    times = rng.uniform(0.05, 3.0, size=(4, 6))
    recorded = model.forward(model.params, x, times, training=False)
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
    # the composite rule's per-interval sums of the per-subject forward
    times, weights, edges = rule.composite(grid)
    lam_nodes = np.exp(model.log_hazard_matrix(x, np.broadcast_to(times, (n, len(times)))))
    pieces = np.add.reduceat(lam_nodes * weights, edges[:-1], axis=1)
    np.testing.assert_allclose(cumhaz, np.cumsum(pieces, axis=1), rtol=1e-12, atol=0.0)


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
    reference.forward = types.MethodType(_reference_forward, reference)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 2))
    times = rng.uniform(0.05, 3.0, size=10)
    events = rng.integers(0, 2, size=10)
    rule = build_rule(5)

    f, f_ref = (m.forward(m.params, x, np.outer(times, rule.unit_nodes),
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
    x = np.random.default_rng(0).normal(size=(1, d))

    def clock(model, rule, reps=30):
        times = rule.unit_nodes[None, :]  # one subject's (1, K) node times
        model.log_hazard_matrix(x, times)  # warm up
        t0 = time.perf_counter()
        for _ in range(reps):
            model.log_hazard_matrix(x, times)
        return time.perf_counter() - t0

    lora_ratio = clock(lora, r10) / clock(lora, r1)
    concat_ratio = clock(concat, r10) / clock(concat, r1)
    assert lora_ratio < 3.0
    assert concat_ratio > lora_ratio


# --- stored state ----------------------------------------------------------------------

@pytest.mark.parametrize("cond", ["concat", "film", "lora"])
def test_state_roundtrip_preserves_predictions(tmp_path, cond):
    # concat divides time by time_scale, so only a scale != 1 shows it dropped
    for time_scale in (1.0, 2.5):
        model = make_model(cond, seed=4, batchnorm=True, time_scale=time_scale)
        _randomize(model, seed=7)
        path = tmp_path / "checkpoint.json"
        scaler = Standardizer(np.zeros(2), np.ones(2))
        cli._write_checkpoint(path, FittedModel(model, build_rule(5), scaler), ("a", "b"))
        clone = cli.load_checkpoint(path)[0].model
        assert clone.config == model.config
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2))
        times = rng.uniform(0, 2, size=(5, 3))
        np.testing.assert_array_equal(model.log_hazard_matrix(x, times),
                                      clone.log_hazard_matrix(x, times))


def _state_copy(model):
    return {k: v.copy() for k, v in model.state_arrays().items()}


def test_checkpoint_shape_mismatch_detected():
    arrays = _state_copy(make_model("lora"))
    arrays["head.W"] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        make_model("lora").load_state_arrays(arrays)


def test_load_state_arrays_checks_names_moments_and_values():
    source = make_model("film", batchnorm=True, seed=1)
    _randomize(source, seed=2)
    target = make_model("film", batchnorm=True, seed=3)
    target.load_state_arrays(source.state_arrays())
    for name, arr in source.state_arrays().items():
        np.testing.assert_array_equal(target.state_arrays()[name], arr)

    arrays = _state_copy(source)
    arrays["backbone.1.bn.running_mean"] = np.zeros(1)
    with pytest.raises(ShapeError, match="running_mean.*expected \\(8,\\)"):
        target.load_state_arrays(arrays)
    arrays = _state_copy(source)
    del arrays["head.b"]
    arrays["extra.W"] = np.zeros(1)
    with pytest.raises(ShapeError, match="missing \\['head.b'\\], unknown \\['extra.W'\\]"):
        target.load_state_arrays(arrays)
    arrays = _state_copy(source)
    arrays["film.h.b"][0] = np.nan
    with pytest.raises(DataError, match="'film.h.b' has non-finite values"):
        target.load_state_arrays(arrays)


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
