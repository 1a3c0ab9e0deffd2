"""Reverse-mode autodiff over float64 numpy arrays.

Covers exactly what the hazard networks need: affine maps, elementwise
nonlinearities, sums and products, column concatenation, row tiling, batch
normalization and dropout; ``record`` adds an op defined elsewhere (the
loss).  Graphs are recorded dynamically per call (node times depend on each
subject's observed time) and traversed once in reverse topological order by
``backward``.

Each op records, for every parent, a pure rule ``g -> gradient for that
parent`` given the gradient ``g`` of the op's output.  A rule returns an
array of its parent's shape; it does not look at ``requires_grad`` or
``.grad``, and it may return a read-only view or the very array it was
given.  ``backward`` alone allocates and sums gradients: it runs only the
rules of parents that require a gradient, assigns a parent's first
contribution and adds later ones out of place, releases each intermediate
gradient once the node's rules have run, and stores gradients only on
leaves, in arrays the leaf owns.

There is no broadcasting beyond the row-wise bias of ``affine``; any other
shape disagreement raises ``ShapeError``.  Values are not checked: an op
records whatever it computes, infinities and NaNs included.  Callers check
finiteness where values leave the network (``HazardModel.forward``'s output,
the loss's cumulative hazard, the gradient norm in ``clip_gradients``).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, ShapeError

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """A float64 array with an optional gradient and one backward rule per
    parent."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_rules")

    def __init__(self, values, requires_grad=False, _parents=(), _rules=()):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._rules = _rules

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def tensor(values) -> Tensor:
    """Constant tensor (no gradient tracking)."""
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    """Leaf tensor that accumulates gradients."""
    return Tensor(values, requires_grad=True)


def record(values, *edges):
    """Output tensor of an op; each edge is (parent, rule for that parent)."""
    parents = tuple(parent for parent, _ in edges)
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=parents,
                      _rules=tuple(rule for _, rule in edges))
    return Tensor(values, requires_grad=False)


def _as_const(x, shape, op):
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != shape:
        raise ShapeError(f"{op}: constant shape {arr.shape} != tensor shape {shape}")
    return arr


def affine(w: Tensor, b: Tensor, h: Tensor) -> Tensor:
    """Row-wise h @ W^T + b for h of shape (batch, d_in)."""
    if w.values.ndim != 2 or h.values.ndim != 2 or b.values.ndim != 1:
        raise ShapeError(
            f"affine expects W (d_out, d_in), b (d_out,), h (batch, d_in); "
            f"got {w.values.shape}, {b.values.shape}, {h.values.shape}")
    d_out, d_in = w.values.shape
    if h.values.shape[1] != d_in or b.values.shape[0] != d_out:
        raise ShapeError(
            f"affine shape mismatch: W {w.values.shape}, b {b.values.shape}, "
            f"h {h.values.shape}")
    out = h.values @ w.values.T + b.values
    return record(out,
                  (w, lambda g: g.T @ h.values),
                  (b, lambda g: g.sum(axis=0)),
                  (h, lambda g: g @ w.values))


def linear(w: Tensor, h: Tensor) -> Tensor:
    """Bias-free affine map."""
    if w.values.ndim != 2 or h.values.ndim != 2 or h.values.shape[1] != w.values.shape[1]:
        raise ShapeError(
            f"linear shape mismatch: W {w.values.shape}, h {h.values.shape}")
    out = h.values @ w.values.T
    return record(out,
                  (w, lambda g: g.T @ h.values),
                  (h, lambda g: g @ w.values))


def _gelu(x):
    """0.5 x (1 + erf(x / sqrt 2)), and the array erf(x / sqrt 2) + 1 that
    the backward rule reuses."""
    # two temporaries instead of four; the operations and their order are
    # unchanged, so values are too
    cdf = x / _SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    out = 0.5 * x
    out *= cdf
    return out, cdf


def _gelu_grad(x, cdf):
    # 0.5 * cdf is 0.5 * (1 + erf(x / sqrt 2)) bit for bit, without a second erf
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return 0.5 * cdf + x * phi


def _and_output(fwd):
    """``fwd`` returning its output twice: as the value and as the array the
    backward rule reads."""
    return lambda x: (fwd(x),) * 2


# kind -> (forward: x -> (value, saved array), backward rule: (x, saved) -> dy/dx)
_ELEMENTWISE = {
    "tanh": (_and_output(np.tanh), lambda x, y: 1.0 - y * y),
    "softplus": (_and_output(lambda x: np.logaddexp(0.0, x)), lambda x, y: expit(x)),
    "gelu": (_gelu, _gelu_grad),
    "sigmoid": (_and_output(expit), lambda x, y: y * (1.0 - y)),
    "relu": (_and_output(lambda x: np.maximum(x, 0.0)),
             lambda x, y: (x > 0.0).astype(np.float64)),
    "sin": (_and_output(np.sin), lambda x, y: np.cos(x)),
}

ELEMENTWISE_KINDS = tuple(_ELEMENTWISE)


def elementwise(kind: str, x: Tensor) -> Tensor:
    """Elementwise nonlinearity with its exact analytic backward rule."""
    try:
        fwd, dfwd = _ELEMENTWISE[kind]
    except KeyError:
        raise ContractError(f"unknown elementwise kind {kind!r}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        out, saved = fwd(x.values)
    return record(out, (x, lambda g: g * dfwd(x.values, saved)))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"add: {a.values.shape} != {b.values.shape}")
    out = a.values + b.values
    return record(out, (a, lambda g: g), (b, lambda g: g))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a same-shape constant array."""
    if isinstance(b, Tensor):
        if a.values.shape != b.values.shape:
            raise ShapeError(f"mul: {a.values.shape} != {b.values.shape}")
        out = a.values * b.values
        return record(out,
                      (a, lambda g: g * b.values),
                      (b, lambda g: g * a.values))
    c = _as_const(b, a.values.shape, "mul")
    return record(a.values * c, (a, lambda g: g * c))


def _column_block(start, stop):
    # a contiguous copy: a strided view would reach the parent's own rules
    # (a matmul in ``affine``) and change how they sum
    return lambda g: np.ascontiguousarray(g[:, start:stop])


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    rows = {t.values.shape[0] for t in tensors}
    if len(rows) != 1 or any(t.values.ndim != 2 for t in tensors):
        raise ShapeError("concat_cols expects 2-d tensors with equal row counts")
    out = np.concatenate([t.values for t in tensors], axis=1)
    edges, start = [], 0
    for t in tensors:
        stop = start + t.values.shape[1]
        edges.append((t, _column_block(start, stop)))
        start = stop
    return record(out, *edges)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.values.reshape(shape)
    return record(out, (x, lambda g: g.reshape(x.values.shape)))


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Repeat each row ``reps`` times consecutively: (n, d) -> (n*reps, d).

    The backward rule sums the gradient over the copies, which is what
    makes reuse of a cached embedding across quadrature nodes correct.
    """
    if x.values.ndim != 2:
        raise ShapeError(f"tile_rows expects a 2-d tensor, got {x.values.shape}")
    out = np.repeat(x.values, reps, axis=0)
    n, d = x.values.shape
    return record(out, (x, lambda g: g.reshape(n, reps, d).sum(axis=1)))


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    if axis not in (None, 0, 1):
        raise ContractError(f"reduce_sum axis must be None, 0 or 1, got {axis}")
    out = x.values.sum(axis=axis)

    def grad_x(g):
        return np.broadcast_to(g[:, None] if axis == 1 else g, x.values.shape)

    return record(out, (x, grad_x))


def dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    return mul(x, mask)


BN_MOMENTUM = 0.1  # weight of the batch in each update of the running moments
BN_EPS = 1e-5


class BatchNormState:
    """Running first and second moments used at evaluation time."""

    def __init__(self, dim):
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               state: BatchNormState, training: bool) -> Tensor:
    """Per-feature batch normalization over the row axis."""
    if x.values.ndim != 2 or gamma.values.shape != (x.values.shape[1],) \
            or beta.values.shape != (x.values.shape[1],):
        raise ShapeError(
            f"batch_norm shapes: x {x.values.shape}, gamma {gamma.values.shape}, "
            f"beta {beta.values.shape}")
    if training:
        mu = x.values.mean(axis=0)
        var = x.values.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.values - mu) * inv_std
        n = x.values.shape[0]
        m = BN_MOMENTUM
        state.running_mean = (1 - m) * state.running_mean + m * mu
        unbiased = var * (n / max(n - 1, 1))
        state.running_var = (1 - m) * state.running_var + m * unbiased

        def grad_x(g):
            gx = g * gamma.values
            return inv_std / n * (
                n * gx - gx.sum(axis=0) - xhat * (gx * xhat).sum(axis=0))
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        xhat = (x.values - state.running_mean) * inv_std

        def grad_x(g):
            return g * gamma.values * inv_std

    out = gamma.values * xhat + beta.values
    return record(out,
                  (x, grad_x),
                  (gamma, lambda g: (g * xhat).sum(axis=0)),
                  (beta, lambda g: g.sum(axis=0)))


def toposort(root: Tensor) -> list[Tensor]:
    """Recorded operations reachable from ``root``, in topological order."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _accumulate_leaf(leaf: Tensor, g) -> None:
    # the first contribution is copied: a rule may hand back a read-only
    # broadcast view, or the array it gave another parent, and callers such
    # as gradient clipping scale ``leaf.grad`` in place
    leaf.grad = np.array(g) if leaf.grad is None else leaf.grad + g


def backward(loss: Tensor) -> None:
    """Add d(loss)/d(leaf) to the ``.grad`` of every requires_grad leaf.

    This is the only code that allocates and sums gradients.  Nodes are
    visited in reverse topological order, so a node's gradient is complete
    before its rules run; the rule of a parent that does not require a
    gradient is not run.  A node's first incoming gradient is kept as given
    and later ones are added out of place, so contributions from several
    uses of a tensor (a cached embedding reused at every quadrature node)
    sum in the order the graph recorded them.  An intermediate gradient is
    released once its rules have run and is never stored on the node; only
    leaves keep ``.grad``, and a leaf whose ``.grad`` is already set (no
    ``zero_grad`` in between) adds this call's gradient to it.
    """
    if loss.values.shape != ():
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        return
    seed = np.ones_like(loss.values)
    if not loss._parents:
        _accumulate_leaf(loss, seed)
        return
    pending = {id(loss): seed}
    for node in reversed(toposort(loss)):
        if not node._parents:
            continue
        g = pending.pop(id(node))
        for parent, rule in zip(node._parents, node._rules):
            if not parent.requires_grad:
                continue
            if not parent._parents:
                _accumulate_leaf(parent, rule(g))
            elif id(parent) in pending:
                pending[id(parent)] = pending[id(parent)] + rule(g)
            else:
                pending[id(parent)] = rule(g)


def zero_grad(params) -> None:
    for p in params:
        p.grad = None

