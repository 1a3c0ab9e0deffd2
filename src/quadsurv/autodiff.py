"""Reverse-mode autodiff over float64 numpy arrays.

Covers exactly what the hazard networks need: affine maps, elementwise
nonlinearities, elementwise products, column concatenation/slicing, row
tiling, reductions, batch normalization and dropout.  Graphs are recorded
dynamically per call (node times depend on each subject's observed time)
and traversed once in reverse topological order by ``backward``.

There is no broadcasting beyond the row-wise bias of ``affine``; any other
shape disagreement raises ``ShapeError``.
"""

from __future__ import annotations

import base64

import numpy as np
from scipy.special import erf, expit

from .errors import ContractError, NumericDomainError, ShapeError

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class Tensor:
    """A float64 array with an optional gradient and a backward rule."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

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


def _guard_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        flat = np.ravel(arr)
        bad = np.flatnonzero(~np.isfinite(flat))
        raise NumericDomainError(
            f"non-finite values produced by {op}",
            positions=bad[:16].tolist(), shape=tuple(np.shape(arr)))


def _make(values, parents, backward_fn, op):
    _guard_finite(values, op)
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=tuple(parents),
                      _backward=backward_fn)
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

    def backward_fn(g):
        if w.requires_grad:
            w.grad += g.T @ h.values
        if b.requires_grad:
            b.grad += g.sum(axis=0)
        if h.requires_grad:
            h.grad += g @ w.values

    return _make(out, (w, b, h), backward_fn, "affine")


def linear(w: Tensor, h: Tensor) -> Tensor:
    """Bias-free affine map."""
    if w.values.ndim != 2 or h.values.ndim != 2 or h.values.shape[1] != w.values.shape[1]:
        raise ShapeError(
            f"linear shape mismatch: W {w.values.shape}, h {h.values.shape}")
    out = h.values @ w.values.T

    def backward_fn(g):
        if w.requires_grad:
            w.grad += g.T @ h.values
        if h.requires_grad:
            h.grad += g @ w.values

    return _make(out, (w, h), backward_fn, "linear")


def _gelu(x):
    # 0.5 * x * (1 + erf(x / sqrt 2)) with two temporaries instead of four;
    # the operations and their order are unchanged, so values are too
    cdf = x / _SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    out = 0.5 * x
    out *= cdf
    return out


def _gelu_grad(x, y):
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return cdf + x * phi


_ELEMENTWISE = {
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda x, y: expit(x)),
    "gelu": (_gelu, _gelu_grad),
    "sigmoid": (expit, lambda x, y: y * (1.0 - y)),
    "exp": (np.exp, lambda x, y: y),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0.0).astype(np.float64)),
    "sin": (np.sin, lambda x, y: np.cos(x)),
}

ELEMENTWISE_KINDS = tuple(_ELEMENTWISE)


def elementwise(kind: str, x: Tensor) -> Tensor:
    """Elementwise nonlinearity with its exact analytic backward rule."""
    try:
        fwd, dfwd = _ELEMENTWISE[kind]
    except KeyError:
        raise ContractError(f"unknown elementwise kind {kind!r}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        out = fwd(x.values)

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g * dfwd(x.values, out)

    return _make(out, (x,), backward_fn, f"elementwise[{kind}]")


def add(a: Tensor, b) -> Tensor:
    if isinstance(b, Tensor):
        if a.values.shape != b.values.shape:
            raise ShapeError(f"add: {a.values.shape} != {b.values.shape}")
        out = a.values + b.values

        def backward_fn(g):
            if a.requires_grad:
                a.grad += g
            if b.requires_grad:
                b.grad += g

        return _make(out, (a, b), backward_fn, "add")
    c = _as_const(b, a.values.shape, "add")
    out = a.values + c

    def backward_const(g):
        if a.requires_grad:
            a.grad += g

    return _make(out, (a,), backward_const, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"sub: {a.values.shape} != {b.values.shape}")
    out = a.values - b.values

    def backward_fn(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad -= g

    return _make(out, (a, b), backward_fn, "sub")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a same-shape constant array."""
    if isinstance(b, Tensor):
        if a.values.shape != b.values.shape:
            raise ShapeError(f"mul: {a.values.shape} != {b.values.shape}")
        out = a.values * b.values

        def backward_fn(g):
            if a.requires_grad:
                a.grad += g * b.values
            if b.requires_grad:
                b.grad += g * a.values

        return _make(out, (a, b), backward_fn, "mul")
    c = _as_const(b, a.values.shape, "mul")
    out = a.values * c

    def backward_const(g):
        if a.requires_grad:
            a.grad += g * c

    return _make(out, (a,), backward_const, "mul")


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = x.values * c

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g * c

    return _make(out, (x,), backward_fn, "scale")


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    rows = {t.values.shape[0] for t in tensors}
    if len(rows) != 1 or any(t.values.ndim != 2 for t in tensors):
        raise ShapeError("concat_cols expects 2-d tensors with equal row counts")
    out = np.concatenate([t.values for t in tensors], axis=1)
    widths = [t.values.shape[1] for t in tensors]

    def backward_fn(g):
        start = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                t.grad += g[:, start:start + w]
            start += w

    return _make(out, tuple(tensors), backward_fn, "concat_cols")


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.values.ndim != 2 or not (0 <= start < stop <= x.values.shape[1]):
        raise ShapeError(
            f"slice_cols[{start}:{stop}] invalid for shape {x.values.shape}")
    out = x.values[:, start:stop].copy()

    def backward_fn(g):
        if x.requires_grad:
            x.grad[:, start:stop] += g

    return _make(out, (x,), backward_fn, "slice_cols")


def reshape(x: Tensor, shape) -> Tensor:
    out = x.values.reshape(shape)

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g.reshape(x.values.shape)

    return _make(out, (x,), backward_fn, "reshape")


def tile_rows(x: Tensor, reps: int) -> Tensor:
    """Repeat each row ``reps`` times consecutively: (n, d) -> (n*reps, d).

    The backward rule sums the gradient over the copies, which is what
    makes reuse of a cached embedding across quadrature nodes correct.
    """
    if x.values.ndim != 2:
        raise ShapeError(f"tile_rows expects a 2-d tensor, got {x.values.shape}")
    out = np.repeat(x.values, reps, axis=0)
    n, d = x.values.shape

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g.reshape(n, reps, d).sum(axis=1)

    return _make(out, (x,), backward_fn, "tile_rows")


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    if axis not in (None, 0, 1):
        raise ContractError(f"reduce_sum axis must be None, 0 or 1, got {axis}")
    out = x.values.sum(axis=axis)

    def backward_fn(g):
        if not x.requires_grad:
            return
        if axis is None:
            x.grad += g
        elif axis == 0:
            x.grad += np.broadcast_to(g, x.values.shape)
        else:
            x.grad += g[:, None]

    return _make(out, (x,), backward_fn, "reduce_sum")


def mean(x: Tensor) -> Tensor:
    n = x.values.size
    out = x.values.mean()

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g / n

    return _make(out, (x,), backward_fn, "mean")


def dropout(x: Tensor, rate: float, rng, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or rate is 0."""
    if not training or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    return mul(x, mask)


class BatchNormState:
    """Running first and second moments used at evaluation time."""

    def __init__(self, dim, momentum=0.1, eps=1e-5):
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)
        self.momentum = float(momentum)
        self.eps = float(eps)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               state: BatchNormState, training: bool) -> Tensor:
    """Per-feature batch normalization over the row axis."""
    if x.values.ndim != 2 or gamma.values.shape != (x.values.shape[1],) \
            or beta.values.shape != (x.values.shape[1],):
        raise ShapeError(
            f"batch_norm shapes: x {x.values.shape}, gamma {gamma.values.shape}, "
            f"beta {beta.values.shape}")
    eps = state.eps
    if training:
        mu = x.values.mean(axis=0)
        var = x.values.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.values - mu) * inv_std
        n = x.values.shape[0]
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mu
        unbiased = var * (n / max(n - 1, 1))
        state.running_var = (1 - m) * state.running_var + m * unbiased

        def backward_train(g):
            if gamma.requires_grad:
                gamma.grad += (g * xhat).sum(axis=0)
            if beta.requires_grad:
                beta.grad += g.sum(axis=0)
            if x.requires_grad:
                gx = g * gamma.values
                x.grad += inv_std / n * (
                    n * gx - gx.sum(axis=0) - xhat * (gx * xhat).sum(axis=0))

        out = gamma.values * xhat + beta.values
        return _make(out, (x, gamma, beta), backward_train, "batch_norm")

    inv_std = 1.0 / np.sqrt(state.running_var + eps)
    xhat = (x.values - state.running_mean) * inv_std
    out = gamma.values * xhat + beta.values

    def backward_eval(g):
        if gamma.requires_grad:
            gamma.grad += (g * xhat).sum(axis=0)
        if beta.requires_grad:
            beta.grad += g.sum(axis=0)
        if x.requires_grad:
            x.grad += g * gamma.values * inv_std

    return _make(out, (x, gamma, beta), backward_eval, "batch_norm")


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


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    Gradients add across multiple uses of a tensor, so cached embeddings
    reused at every quadrature node receive their full contribution.
    """
    if loss.values.shape != ():
        raise ContractError(
            f"backward requires a scalar loss, got shape {loss.values.shape}")
    if not loss.requires_grad:
        return
    order = toposort(loss)
    for node in order:
        if node.requires_grad and node.grad is None:
            node.grad = np.zeros_like(node.values)
    loss.grad = np.ones_like(loss.values)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# --- parameter serialization ------------------------------------------------

def params_to_payload(params: dict) -> dict:
    """Named float64 arrays as {name: {shape, data}} with base64 payloads."""
    payload = {}
    for name, p in params.items():
        arr = p.values if isinstance(p, Tensor) else np.asarray(p, dtype=np.float64)
        payload[name] = {
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
        }
    return payload


def payload_to_arrays(payload: dict) -> dict:
    arrays = {}
    for name, entry in payload.items():
        flat = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        arrays[name] = flat.reshape(entry["shape"]).astype(np.float64)
    return arrays
