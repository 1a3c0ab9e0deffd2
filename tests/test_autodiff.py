"""Forward values, analytic gradients vs finite differences, accumulation."""

import math

import numpy as np
import pytest

from quadsurv import autodiff as ad
from quadsurv.errors import ContractError, NumericDomainError, ShapeError
from quadsurv.model import CONDITIONING_KINDS, HazardModel, ModelConfig
from quadsurv.quadrature import build_rule
from quadsurv.training import clip_gradients, nll_loss


def fd_grad(fn, arr, step=1e-6):
    """Central finite differences of a scalar-valued fn over a flat array."""
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


def assert_grads_close(analytic, numeric, tol=1e-5):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert np.max(np.abs(analytic - numeric) / scale) < tol


# --- affine ------------------------------------------------------------------

def test_affine_identity():
    w = ad.parameter(np.eye(2))
    b = ad.parameter(np.zeros(2))
    h = ad.tensor([[1.0, 2.0]])
    out = ad.affine(w, b, h)
    np.testing.assert_array_equal(out.values, [[1.0, 2.0]])


def test_affine_hand_sum():
    w = ad.parameter([[1.0, 1.0]])
    b = ad.parameter([3.0])
    h = ad.tensor([[2.0, 5.0]])
    assert ad.affine(w, b, h).values.tolist() == [[10.0]]


def test_affine_shape_error_names_shapes():
    w = ad.parameter(np.zeros((2, 3)))
    b = ad.parameter(np.zeros(2))
    h = ad.tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        ad.affine(w, b, h)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_affine_gradient_matches_fd():
    rng = np.random.default_rng(1)
    w = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=3))
    h = ad.parameter(rng.normal(size=(5, 4)))

    def loss_value():
        return float(ad.reduce_sum(
            ad.elementwise("tanh", ad.affine(w, b, h))).values)

    ad.zero_grad([w, b, h])
    ad.backward(ad.reduce_sum(ad.elementwise("tanh", ad.affine(w, b, h))))
    for p in (w, b, h):
        assert_grads_close(p.grad, fd_grad(loss_value, p.values))


# --- elementwise -------------------------------------------------------------

def test_elementwise_values():
    x = ad.tensor([[0.0]])
    assert ad.elementwise("tanh", x).values[0, 0] == 0.0
    assert abs(ad.elementwise("softplus", x).values[0, 0] - math.log(2.0)) < 1e-15
    assert ad.elementwise("relu", ad.tensor([[-2.0]])).values[0, 0] == 0.0
    assert abs(ad.elementwise("sigmoid", x).values[0, 0] - 0.5) < 1e-15
    assert abs(ad.elementwise("gelu", ad.tensor([[1.0]])).values[0, 0]
               - 0.5 * (1 + math.erf(1 / math.sqrt(2)))) < 1e-15


@pytest.mark.parametrize("kind", ad.ELEMENTWISE_KINDS)
def test_elementwise_gradients_match_fd(kind):
    rng = np.random.default_rng(7)
    x = ad.parameter(rng.uniform(-1.5, 1.5, size=(4, 3)))

    def loss_value():
        return float(ad.reduce_sum(ad.elementwise(kind, x)).values)

    ad.zero_grad([x])
    ad.backward(ad.reduce_sum(ad.elementwise(kind, x)))
    assert_grads_close(x.grad, fd_grad(loss_value, x.values))


def test_gelu_backward_reuses_forward_erf():
    """The backward rule's 0.5 (erf(x / sqrt 2) + 1), taken from the forward,
    is the recomputed 0.5 (1 + erf(x / sqrt 2)) bit for bit."""
    from scipy.special import erf
    x = np.concatenate([np.random.default_rng(3).normal(0.0, 4.0, size=2000),
                        [0.0, -0.0, 1e-300, -1e-300, 8.0, -8.0, 40.0, -40.0]])
    value, cdf = ad._gelu(x)
    old = 0.5 * (1.0 + erf(x / math.sqrt(2.0))) \
        + x * (np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi)))
    assert np.array_equal(ad._gelu_grad(x, cdf), old)
    assert np.array_equal(value, 0.5 * x * (1.0 + erf(x / math.sqrt(2.0))))


def test_unknown_kind_rejected():
    with pytest.raises(ContractError):
        ad.elementwise("swish", ad.tensor([[0.0]]))


# --- structural ops -----------------------------------------------------------

def test_backward_of_sum_is_ones():
    x = ad.parameter([1.0, 2.0, 3.0])
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_requires_scalar():
    x = ad.parameter([[1.0, 2.0]])
    with pytest.raises(ContractError):
        ad.backward(x)


def test_double_use_accumulates_exactly():
    # y = f(x) + g(x) must give f'(x) + g'(x)
    x = ad.parameter([0.3])
    y = ad.add(ad.elementwise("sin", x), ad.elementwise("tanh", x))
    ad.backward(ad.reduce_sum(y))
    expected = math.cos(0.3) + (1 - math.tanh(0.3) ** 2)
    assert abs(x.grad[0] - expected) < 1e-14


def test_tile_rows_backward_sums_over_copies():
    x = ad.parameter([[1.0, 2.0], [3.0, 4.0]])
    tiled = ad.tile_rows(x, 3)
    assert tiled.values.shape == (6, 2)
    np.testing.assert_array_equal(tiled.values[0], tiled.values[2])
    ad.backward(ad.reduce_sum(tiled))
    np.testing.assert_array_equal(x.grad, [[3.0, 3.0], [3.0, 3.0]])


def test_mul_const_and_scale():
    x = ad.parameter([[2.0, 3.0]])
    y = ad.mul(ad.mul(x, np.array([[10.0, 100.0]])), np.full((1, 2), 0.5))
    np.testing.assert_array_equal(y.values, [[10.0, 150.0]])
    ad.backward(ad.reduce_sum(y))
    np.testing.assert_array_equal(x.grad, [[5.0, 50.0]])


def test_mul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.mul(ad.tensor(np.zeros((2, 2))), ad.tensor(np.zeros((2, 3))))


def test_reduce_sum_axes():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(ad.reduce_sum(x, axis=1).values, [3.0, 12.0])
    np.testing.assert_array_equal(ad.reduce_sum(x, axis=0).values, [3.0, 5.0, 7.0])
    ad.backward(ad.reduce_sum(ad.reduce_sum(x, axis=1)))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_toposort_visits_each_node_once():
    x = ad.parameter([1.0])
    a = ad.elementwise("tanh", x)
    b = ad.add(a, a)          # diamond: a used twice
    loss = ad.reduce_sum(b)
    order = ad.toposort(loss)
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))
    assert ids.index(id(a)) < ids.index(id(b))
    ad.backward(loss)
    expected = 2 * (1 - math.tanh(1.0) ** 2)
    assert abs(x.grad[0] - expected) < 1e-14


def _batch_norm_eval(x, gamma, beta):
    state = ad.BatchNormState(3)
    state.running_mean = np.array([0.3, -0.2, 0.1])
    state.running_var = np.array([0.5, 2.0, 1.3])
    return ad.batch_norm(x, gamma, beta, state, training=False)


# op -> (shapes of its tensor arguments, the op on those arguments)
FD_CASES = {
    "linear": (((3, 4), (5, 4)), ad.linear),
    "mul": (((4, 3), (4, 3)), ad.mul),
    "reshape": (((4, 3),), lambda x: ad.reshape(x, (2, 6))),
    "concat_cols": (((4, 1), (4, 3)), lambda a, b: ad.concat_cols([a, b])),
    "reduce_sum_axis0": (((4, 3),), lambda x: ad.reduce_sum(x, axis=0)),
    "batch_norm_eval": (((6, 3), (3,), (3,)), _batch_norm_eval),
}


@pytest.mark.parametrize("op", FD_CASES)
def test_op_gradients_match_fd(op):
    shapes, fn = FD_CASES[op]
    rng = np.random.default_rng(12)
    args = [ad.parameter(rng.uniform(-1.5, 1.5, size=s)) for s in shapes]
    out_shape = fn(*args).values.shape
    # fixed random weights make the loss sensitive to where each entry lands
    weights = rng.uniform(0.5, 2.0, size=out_shape)

    def run():
        return ad.reduce_sum(ad.mul(ad.elementwise("tanh", fn(*args)), weights))

    ad.zero_grad(args)
    ad.backward(run())
    for p in args:
        assert_grads_close(p.grad, fd_grad(lambda: float(run().values), p.values))


# --- gradient accumulation policy ------------------------------------------------

def reference_backward(loss):
    """Gradients by the accumulation policy the per-op rules replaced: a zero
    array for every recorded node, then ``+=`` of each rule's contribution."""
    order = ad.toposort(loss)
    grads = {id(node): np.zeros_like(node.values)
             for node in order if node.requires_grad}
    grads[id(loss)] = np.ones_like(loss.values)
    for node in reversed(order):
        for parent, rule in zip(node._parents, node._rules):
            if parent.requires_grad:
                grads[id(parent)] += rule(grads[id(node)])
    return grads


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("head", CONDITIONING_KINDS)
def test_backward_equals_reference_policy_on_nll_loss(head, batchnorm, dropout):
    cfg = ModelConfig(input_dim=3, hidden=(16, 16), conditioning=head, rank=4,
                      time_embed_dim=6, modulation_hidden=8, batchnorm=batchnorm,
                      dropout=dropout, time_scale=2.0)
    model = HazardModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    for p in model.params.values():
        p.values = rng.normal(0.0, 0.5, size=p.values.shape)
    x = rng.normal(size=(64, 3))
    times = rng.uniform(0.05, 4.0, size=64)
    events = rng.integers(0, 2, size=64)
    loss = nll_loss(model, build_rule(7), x, times, events, training=True,
                    rng=np.random.default_rng(2))
    ad.zero_grad(model.params.values())
    ad.backward(loss)
    expected = reference_backward(loss)
    for name, p in model.params.items():
        assert np.array_equal(p.grad, expected[id(p)]), name


@pytest.mark.parametrize("batchnorm", [False, True])
@pytest.mark.parametrize("head", CONDITIONING_KINDS)
def test_nll_loss_gradients_match_fd(head, batchnorm):
    """The loss's hand-written gradient rule, through every head, against
    central differences at K = 7 on a batch of events and censored times."""
    cfg = ModelConfig(input_dim=3, hidden=(8, 8), activation="tanh",
                      conditioning=head, rank=2, time_embed_dim=4,
                      modulation_hidden=6, batchnorm=batchnorm, time_scale=2.0)
    model = HazardModel(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(3)
    for p in model.params.values():
        p.values = rng.normal(0.0, 0.4, size=p.values.shape)
    x = rng.normal(size=(12, 3))
    times = rng.uniform(0.05, 4.0, size=12)
    events = np.tile([1.0, 0.0], 6)
    rule = build_rule(7)

    def run():
        return nll_loss(model, rule, x, times, events, training=True)

    ad.zero_grad(model.params.values())
    ad.backward(run())
    for name, p in model.params.items():
        assert_grads_close(p.grad, fd_grad(lambda: float(run().values), p.values))


def test_repeated_backward_adds_one_gradient_per_call():
    x = ad.parameter([0.4])
    inner = ad.elementwise("tanh", ad.elementwise("sin", x))
    loss = ad.reduce_sum(inner)
    ad.backward(loss)
    once = x.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * once)
    assert inner.grad is None and loss.grad is None


def test_leaf_gradients_own_their_memory():
    a = ad.parameter(np.ones((2, 3)))
    b = ad.parameter(np.full((2, 3), 2.0))
    c = ad.parameter(np.arange(4.0).reshape(2, 2))
    d = ad.parameter(np.arange(5.0))
    # a and b receive one array from add; c's and d's rules return broadcasts
    loss = ad.add(ad.add(ad.reduce_sum(ad.reduce_sum(ad.add(a, b), axis=0)),
                         ad.reduce_sum(ad.reduce_sum(c, axis=0))),
                  ad.reduce_sum(d))
    ad.backward(loss)
    leaves = [a, b, c, d]
    for i, p in enumerate(leaves):
        assert p.grad.flags.writeable and p.grad.flags.owndata
        assert not any(np.shares_memory(p.grad, q.grad) for q in leaves[i + 1:])
    before = [p.grad.copy() for p in leaves]
    grads = {str(i): p.grad for i, p in enumerate(leaves)}
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in before))
    assert clip_gradients(grads, 0.5)
    for p, g in zip(leaves, before):
        np.testing.assert_array_equal(p.grad, g * (0.5 / norm))


@pytest.mark.parametrize("bad", [1e200, math.nan])
def test_clip_gradients_rejects_non_finite_norm(bad):
    # 1e200 squared overflows the norm to inf, which used to scale every
    # gradient to 0; a NaN norm used to skip clipping and reach the update
    grads = {"a": np.array([1.0, bad]), "b": np.array([2.0])}
    before = {k: g.copy() for k, g in grads.items()}
    with pytest.raises(NumericDomainError, match="non-finite gradient norm"):
        clip_gradients(grads, 10.0)
    for k, g in grads.items():
        np.testing.assert_array_equal(g, before[k])


# --- batch norm and dropout -----------------------------------------------------

def test_batch_norm_train_normalizes():
    rng = np.random.default_rng(3)
    x = ad.tensor(rng.normal(5.0, 3.0, size=(64, 4)))
    gamma = ad.parameter(np.ones(4))
    beta = ad.parameter(np.zeros(4))
    st = ad.BatchNormState(4)
    out = ad.batch_norm(x, gamma, beta, st, training=True)
    np.testing.assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.values.std(axis=0), 1.0, atol=1e-3)
    assert not np.allclose(st.running_mean, 0.0)


def test_batch_norm_gradients_match_fd():
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.normal(size=(6, 3)))
    gamma = ad.parameter(rng.uniform(0.5, 1.5, size=3))
    beta = ad.parameter(rng.normal(size=3))

    def run():
        st = ad.BatchNormState(3)
        return ad.reduce_sum(
            ad.elementwise("tanh", ad.batch_norm(x, gamma, beta, st, True)))

    ad.zero_grad([x, gamma, beta])
    ad.backward(run())
    for p in (x, gamma, beta):
        assert_grads_close(p.grad, fd_grad(lambda: float(run().values), p.values))


def test_batch_norm_eval_uses_running_stats():
    x = ad.tensor(np.array([[10.0, 10.0]]))
    gamma = ad.parameter(np.ones(2))
    beta = ad.parameter(np.zeros(2))
    st = ad.BatchNormState(2)
    st.running_mean = np.array([10.0, 10.0])
    st.running_var = np.array([4.0, 4.0])
    out = ad.batch_norm(x, gamma, beta, st, training=False)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-6)


def test_dropout_identity_at_eval():
    x = ad.tensor(np.ones((4, 4)))
    out = ad.dropout(x, 0.5, np.random.default_rng(0), training=False)
    assert out is x


def test_dropout_scales_surviving_units():
    rng = np.random.default_rng(0)
    x = ad.tensor(np.ones((1000, 1)))
    out = ad.dropout(x, 0.25, rng, training=True)
    vals = np.unique(out.values)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1 / 0.75, 12)}
    assert abs(out.values.mean() - 1.0) < 0.05


# --- determinism -------------------------------------------------------------------

def test_forward_backward_bit_deterministic():
    def run():
        rng = np.random.default_rng(11)
        w = ad.parameter(rng.normal(size=(4, 3)))
        b = ad.parameter(rng.normal(size=4))
        h = ad.tensor(rng.normal(size=(8, 3)))
        loss = ad.reduce_sum(ad.elementwise("gelu", ad.affine(w, b, h)))
        ad.backward(loss)
        return loss.values.copy(), w.grad.copy()

    (l1, g1), (l2, g2) = run(), run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)
