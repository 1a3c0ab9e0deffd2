"""Log-hazard networks with interchangeable time-conditioning heads.

The backbone maps covariates to an embedding h.  Time enters through one
of three heads:

* ``concat``   -- time is appended to the covariates at the input, so every
                  time point costs a full backbone pass.
* ``film``     -- a generator driven by a learned time embedding produces
                  per-channel scale/shift applied to h.
* ``lora``     -- the penultimate affine map gets a time-gated low-rank
                  update W + U diag(s(t)) V; the base products W h and V h
                  depend only on covariates and are computed once per
                  subject, so extra time points cost only the small
                  modulation branch.

Each head is written once, in ``HazardModel.forward`` over autodiff ops,
for per-subject times (the loss) and for a time grid shared by every
subject (dense curves).  Training runs it on the parameters, which records
the graph; ``log_hazard_matrix`` and ``curves`` run it on constant views of
the same arrays, which records nothing.  ``curves`` integrates the hazard
along its grid by the cumulative composite rule of
``QuadratureRule.composite``; the loss keeps the K-node rule on [0, t].
"""

from __future__ import annotations

import math
import numbers
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .data import Standardizer
from .errors import (ContractError, DataError, NumericDomainError, ShapeError,
                     UsageError)
from .quadrature import QuadratureRule

CONDITIONING_KINDS = ("concat", "film", "lora")
ACTIVATIONS = ("tanh", "softplus", "gelu", "sigmoid", "relu")
TILE_CELLS = 131_072  # cache-sized bound on each hidden layer of one ``curves`` tile
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string"}


def _typed(name: str, value, kind):
    """``value`` converted to the field type ``kind``, or UsageError naming
    the field.  Ints reject bools and fractions, floats take ints but only
    finite values, bools take only true and false, ``tuple[X, ...]`` takes a
    list of X and ``tuple[X, X]`` a list of two."""
    if typing.get_origin(kind) is tuple:
        item, *rest = typing.get_args(kind)
        size = None if rest == [Ellipsis] else 1 + len(rest)
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            raise UsageError(f"{name} must be a list{f' of {size}' if size else ''}, "
                             f"got {value!r}")
        return tuple(_typed(f"{name}[{i}]", v, item) for i, v in enumerate(value))
    if kind is bool:
        ok = isinstance(value, (bool, np.bool_))
    elif isinstance(value, (bool, np.bool_)):
        ok = False
    elif kind is float:
        ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, numbers.Integral if kind is int else str)
    if not ok:
        raise UsageError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    return kind(value)


def check_types(config) -> None:
    """Convert each field of the dataclass ``config`` to its annotated type."""
    hints = typing.get_type_hints(type(config))
    for f in fields(config):
        setattr(config, f.name, _typed(f.name, getattr(config, f.name), hints[f.name]))


def config_from_dict(cls, d: dict, complete: bool = False):
    """``cls(**d)`` for a JSON object, ignoring ``schema_version``.  A key
    that is not a field of ``cls``, or with ``complete`` a field without a
    key, is a UsageError; ``cls`` checks the values."""
    d = {k: v for k, v in d.items() if k != "schema_version"}
    names = {f.name for f in fields(cls)}
    missing = sorted(names - set(d)) if complete else []
    unknown = sorted(set(d) - names)
    if missing or unknown:
        raise UsageError(f"{cls.__name__} fields do not match: missing {missing}, "
                         f"unknown {unknown}")
    return cls(**d)


@dataclass
class Architecture:
    """The network shape, shared by ``ModelConfig`` and the training config.

    Every field is converted to its annotated type and checked against
    ``RANGES`` on construction.
    """

    hidden: tuple[int, ...] = (32, 32)
    activation: str = "gelu"
    conditioning: str = "lora"
    rank: int = 8
    time_embed_dim: int = 16
    modulation_hidden: int = 32
    batchnorm: bool = False
    dropout: float = 0.0

    # each field's valid values: a test and the message, formatted with the
    # value, that rejects it; a rule across fields is in ``__post_init__``
    RANGES = {
        "hidden": (lambda v: len(v) > 0 and min(v) >= 1,
                   "hidden sizes must be positive, got {}"),
        "activation": (lambda v: v in ACTIVATIONS, "unknown activation {!r}"),
        "conditioning": (lambda v: v in CONDITIONING_KINDS, "unknown conditioning {!r}"),
        "rank": (lambda v: v >= 1, "rank must be >= 1, got {}"),
        "time_embed_dim": (lambda v: v >= 2, "time_embed_dim must be >= 2, got {}"),
        "modulation_hidden": (lambda v: v >= 1, "modulation_hidden must be >= 1, got {}"),
        "dropout": (lambda v: 0.0 <= v < 1.0, "dropout must be in [0, 1), got {}"),
    }

    @classmethod
    def check_range(cls, name: str, value) -> None:
        """UsageError unless ``value`` is a valid value of the field ``name``."""
        valid, message = cls.RANGES[name]
        if not valid(value):
            raise UsageError(message.format(value))

    def __post_init__(self):
        check_types(self)
        for name in self.RANGES:
            self.check_range(name, getattr(self, name))
        if self.conditioning == "lora" and self.rank >= self.hidden[-1]:
            raise UsageError(
                f"low-rank head needs rank < embedding width, got rank={self.rank} "
                f"for width {self.hidden[-1]}")


@dataclass(kw_only=True)
class ModelConfig(Architecture):
    input_dim: int
    time_scale: float = 1.0

    RANGES = {**Architecture.RANGES,
              "input_dim": (lambda v: v >= 1, "input_dim must be >= 1, got {}"),
              "time_scale": (lambda v: v > 0, "time_scale must be positive, got {}")}


def _finite_output(f: ad.Tensor, times, first: int = 0) -> ad.Tensor:
    """``f``, or NumericDomainError naming the subject and time of its first
    value that is not finite; row i of ``f`` is subject ``first + i``."""
    if not np.all(np.isfinite(f.values)):
        i, j = np.argwhere(~np.isfinite(f.values))[0]
        t = float(times[j] if times.ndim == 1 else times[i, j])
        raise NumericDomainError(
            f"non-finite log-hazard (subject index {first + i}, time {t!r})")
    return f


def _even_slices(size: int, most: int) -> list[slice]:
    """``range(size)`` cut into the fewest slices of at most ``most`` items,
    whose lengths differ by at most one (no slices for size 0)."""
    count = -(-size // most)
    edges = [i * size // count for i in range(count + 1)] if count else []
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _point_blocks(cells, most: int, least: int) -> list[slice]:
    """``range(len(cells))`` cut into consecutive blocks of at most ``most``
    cells each, where ``cells[j]`` is point j's; a block grows past ``most``
    only to hold one point or ``least`` cells, and a last block of fewer than
    ``least`` cells joins the one before."""
    blocks, start, size = [], 0, 0
    for j, c in enumerate(cells):
        if size + c > most and size >= least:
            blocks.append(slice(start, j))
            start, size = j, 0
        size += c
    if blocks and size < least:
        start = blocks.pop().start
    blocks.append(slice(start, len(cells)))
    return blocks


def _glorot(rng, d_out, d_in):
    limit = math.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_out, d_in))


class HazardModel:
    """All learnable state of a log-hazard network f(x, t)."""

    def __init__(self, config: ModelConfig, rng):
        self.config = config
        self.params: dict[str, ad.Tensor] = {}
        self.bn_states: list[ad.BatchNormState] = []
        self._init_params(rng)

    # --- construction --------------------------------------------------

    def _init_params(self, rng):
        cfg = self.config
        d_in = cfg.input_dim + (1 if cfg.conditioning == "concat" else 0)
        for i, width in enumerate(cfg.hidden):
            self.params[f"backbone.{i}.W"] = ad.parameter(_glorot(rng, width, d_in))
            self.params[f"backbone.{i}.b"] = ad.parameter(np.zeros(width))
            if cfg.batchnorm:
                self.params[f"backbone.{i}.bn.gamma"] = ad.parameter(np.ones(width))
                self.params[f"backbone.{i}.bn.beta"] = ad.parameter(np.zeros(width))
                self.bn_states.append(ad.BatchNormState(width))
            d_in = width
        d_h = cfg.hidden[-1]

        if cfg.conditioning != "concat":
            # frequencies initialized relative to the working time scale so the
            # embedding neither saturates nor aliases on the observed range
            m = cfg.time_embed_dim
            self.params["phi.w0"] = ad.parameter(np.full((1, 1), 1.0 / cfg.time_scale))
            self.params["phi.b0"] = ad.parameter(np.zeros(1))
            freqs = np.exp(rng.uniform(math.log(0.1), math.log(10.0),
                                       size=(m - 1, 1))) / cfg.time_scale
            self.params["phi.wf"] = ad.parameter(freqs)
            self.params["phi.bf"] = ad.parameter(rng.uniform(0.0, 2.0 * math.pi, size=m - 1))

        if cfg.conditioning == "film":
            mh = cfg.modulation_hidden
            self.params["film.h.W"] = ad.parameter(_glorot(rng, mh, cfg.time_embed_dim))
            self.params["film.h.b"] = ad.parameter(np.zeros(mh))
            self.params["film.gamma.W"] = ad.parameter(np.zeros((d_h, mh)))
            self.params["film.gamma.b"] = ad.parameter(np.ones(d_h))
            self.params["film.beta.W"] = ad.parameter(np.zeros((d_h, mh)))
            self.params["film.beta.b"] = ad.parameter(np.zeros(d_h))
        elif cfg.conditioning == "lora":
            mh = cfg.modulation_hidden
            r = cfg.rank
            self.params["lora.W"] = ad.parameter(_glorot(rng, d_h, d_h))
            self.params["lora.b"] = ad.parameter(np.zeros(d_h))
            self.params["lora.U"] = ad.parameter(np.zeros((d_h, r)))
            self.params["lora.V"] = ad.parameter(
                rng.normal(0.0, 1.0 / math.sqrt(d_h), size=(r, d_h)))
            self.params["mod.h.W"] = ad.parameter(_glorot(rng, mh, cfg.time_embed_dim))
            self.params["mod.h.b"] = ad.parameter(np.zeros(mh))
            self.params["mod.out.W"] = ad.parameter(
                rng.normal(0.0, 1.0 / math.sqrt(mh), size=(r, mh)))
            self.params["mod.out.b"] = ad.parameter(np.zeros(r))

        self.params["head.W"] = ad.parameter(_glorot(rng, 1, d_h))
        self.params["head.b"] = ad.parameter(np.zeros(1))

    # --- forward ----------------------------------------------------------

    def _constants(self) -> dict[str, ad.Tensor]:
        """Constant views of the parameters (no copy); a forward over them
        records no graph."""
        return {name: ad.tensor(p.values) for name, p in self.params.items()}

    def _backbone(self, p, h, training, rng):
        cfg = self.config
        for i in range(len(cfg.hidden)):
            h = ad.affine(p[f"backbone.{i}.W"], p[f"backbone.{i}.b"], h)
            if cfg.batchnorm:
                h = ad.batch_norm(h, p[f"backbone.{i}.bn.gamma"],
                                  p[f"backbone.{i}.bn.beta"],
                                  self.bn_states[i], training)
            h = ad.elementwise(cfg.activation, h)
            if cfg.dropout > 0.0:
                h = ad.dropout(h, cfg.dropout, rng, training)
        return h

    def _modulation(self, p, t_col):
        """Time-only branch, one row per time: FiLM's (gamma, beta), or the
        low-rank gates s."""
        cfg = self.config
        lin = ad.affine(p["phi.w0"], p["phi.b0"], t_col)
        osc = ad.elementwise("sin", ad.affine(p["phi.wf"], p["phi.bf"], t_col))
        emb = ad.concat_cols([lin, osc])
        if cfg.conditioning == "film":
            g_hidden = ad.elementwise(
                cfg.activation, ad.affine(p["film.h.W"], p["film.h.b"], emb))
            return (ad.affine(p["film.gamma.W"], p["film.gamma.b"], g_hidden),
                    ad.affine(p["film.beta.W"], p["film.beta.b"], g_hidden))
        s_hidden = ad.elementwise(
            cfg.activation, ad.affine(p["mod.h.W"], p["mod.h.b"], emb))
        return ad.affine(p["mod.out.W"], p["mod.out.b"], s_hidden)

    def forward(self, p, x, times, training=False, rng=None) -> ad.Tensor:
        """Log-hazard tensor of shape (batch, n_times).

        ``x`` is (batch, d).  ``times`` is either (batch, n_times), entry
        (i, j) giving f(x_i, times[i, j]), or a 1-d grid of n_times shared by
        every subject.  ``p`` maps parameter names to tensors:
        ``self.params`` records the graph (the training loss passes it, with
        ``training`` and the dropout ``rng``), ``self._constants()`` does not.

        ``film`` and ``lora`` factorise as f(x_i, t) = a_i . c(t) + bias(t),
        with a per-subject row a and per-time rows c and bias, so the head and
        the base products run once per subject and each extra time costs the
        time branch and one dot product.  An output that is not finite raises
        ``NumericDomainError`` naming its subject index and time.
        """
        x, times = self._inputs(x, times)
        return _finite_output(self._log_hazard(p, x, times, training, rng), times)

    def _inputs(self, x, times):
        """``x`` and ``times`` as float arrays of the shapes ``forward``
        takes, or ShapeError."""
        x = np.asarray(x, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ShapeError(f"covariates have shape {x.shape}, expected "
                             f"(batch, {self.config.input_dim})")
        if times.ndim not in (1, 2) or (times.ndim == 2 and times.shape[0] != x.shape[0]):
            raise ShapeError(
                f"times have shape {times.shape}, expected ({x.shape[0]}, n) or (n,)")
        return x, times

    def _log_hazard(self, p, x, times, training=False, rng=None) -> ad.Tensor:
        """``forward`` on checked inputs, without the check of its output."""
        cfg = self.config
        b, r = x.shape[0], times.shape[-1]
        if cfg.conditioning == "concat":
            t_col = np.broadcast_to(times, (b, r)).reshape(-1, 1)
            inp = ad.tensor(np.hstack([np.repeat(x, r, axis=0),
                                       t_col / cfg.time_scale]))
            f = ad.affine(p["head.W"], p["head.b"], self._backbone(p, inp, training, rng))
            return ad.reshape(f, (b, r))

        t_col = ad.tensor(times.reshape(-1, 1))
        h = self._backbone(p, ad.tensor(x), training, rng)
        w = p["head.W"]
        if cfg.conditioning == "film":
            # a_i = h_i * w, c(t) = gamma(t), bias(t) = w . beta(t) + b_head
            gamma, beta = self._modulation(p, t_col)
            a, c = ad.mul(h, ad.tile_rows(w, b)), gamma
            bias = ad.reshape(ad.affine(w, p["head.b"], beta), (-1,))
        else:
            # a_i = [w . (W h_i + b) + b_head, V h_i * (w U)], c(t) = [1, s(t)];
            # U^T is linear(U, I), exact because every product is with 1 or 0
            u_t = ad.linear(p["lora.U"], ad.tensor(np.eye(cfg.rank)))
            q = ad.linear(u_t, w)
            base = ad.affine(w, p["head.b"], ad.affine(p["lora.W"], p["lora.b"], h))
            a = ad.concat_cols([base, ad.mul(ad.linear(p["lora.V"], h),
                                             ad.tile_rows(q, b))])
            c = ad.concat_cols([ad.tensor(np.ones((t_col.shape[0], 1))),
                                self._modulation(p, t_col)])
            bias = None
        if times.ndim == 1:
            f = ad.linear(c, a) if bias is None else ad.affine(c, bias, a)
        else:
            f = ad.reduce_sum(ad.mul(ad.tile_rows(a, r), c), axis=1)
            f = ad.reshape(f if bias is None else ad.add(f, bias), (b, r))
        return f

    def log_hazard_matrix(self, x, times):
        """``forward`` in evaluation mode on constant views of the parameters,
        as a (batch, n_times) array; it records no graph."""
        return self.forward(self._constants(), x, times).values

    def curves(self, x, grid, rule: QuadratureRule):
        """Hazard, cumulative hazard and survival over a shared time grid.

        Returns three arrays of shape (n_subjects, len(grid)).  The hazard is
        the forward at each grid point.  The cumulative hazard is the
        cumulative composite rule of ``rule.composite``: Lambda(g_j) sums the
        integrals over [g_{l-1}, g_l] for l <= j, each by its own
        Gauss-Legendre rule, so it is non-decreasing in j and S = exp(-Lambda)
        is non-increasing.  A (subject, point) pair costs one forward row for
        its point and one per node of its interval: 1 + m, or 1 + K where the
        interval is wide (see ``QuadratureRule.composite``).

        Each tile of subjects x a block of consecutive grid points is one
        forward pass, and each pair lies in exactly one tile.  A hidden layer
        of a tile has at most ``TILE_CELLS // max(hidden)`` rows, so each
        backbone layer's array stays in cache and, beside the three outputs,
        memory is bounded for any n.  A ``concat`` hidden row is one
        (subject, time) pair; a ``film``/``lora`` backbone row is one subject
        and a time-branch row one time.  Blocks and subject tiles are not cut
        below 4 (K+1) rows where the grid and x have them.

        Rows are independent, so values do not depend on the tiling as long
        as the BLAS computes each row of a product alike for any row count.
        A log-hazard that is not finite raises ``NumericDomainError`` naming
        its subject's index in ``x`` and its time.
        """
        grid = np.asarray(grid, dtype=np.float64)
        if grid.ndim != 1 or len(grid) == 0:
            raise ContractError("grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(grid)):
            raise ContractError(
                f"grid must be finite, got points from {grid[0]} to {grid[-1]}")
        if np.any(np.diff(grid) < 0) or grid[0] < 0:
            raise ContractError("grid must be ascending and nonnegative")
        x = self._inputs(x, grid)[0]
        n, g = x.shape[0], len(grid)
        quad_times, weights, edges = rule.composite(grid)
        cells = 1 + np.diff(edges)  # forward rows per (subject, point) pair
        # tiles keep each hidden layer within ``most`` rows, but blocks and
        # subject tiles are not cut below ``least``: with fewer rows, a product
        # of the forward can take another BLAS kernel and move the last bits
        least = 4 * (rule.order + 1)
        most = max(1, TILE_CELLS // max(self.config.hidden))
        # hidden rows per subject: all its (point, node) rows for concat, one
        # backbone row for film and lora
        per_subject = int(cells.sum()) if self.config.conditioning == "concat" else 1
        blocks = _point_blocks(cells, most, least)
        tiles = [(rows, cols)
                 for rows in _even_slices(n, max(1, max(most, least) // per_subject))
                 for cols in blocks]

        p = self._constants()
        lam, cumhaz = np.empty((n, g)), np.empty((n, g))
        for rows, cols in tiles:
            # the block's points, then its nodes; the forward's output is a
            # fresh array, used in place
            first, last = edges[cols.start], edges[cols.stop]
            times = np.concatenate([grid[cols], quad_times[first:last]])
            f = _finite_output(self._log_hazard(p, x[rows], times), times,
                               rows.start).values
            with np.errstate(over="ignore"):
                np.exp(f, out=f)
            points = cols.stop - cols.start
            lam[rows, cols] = f[:, :points]
            nodes = f[:, points:]
            nodes *= weights[first:last]
            cumhaz[rows, cols] = np.add.reduceat(nodes, edges[cols] - first, axis=1)
        np.cumsum(cumhaz, axis=1, out=cumhaz)
        return lam, cumhaz, np.exp(-cumhaz)

    # --- state -------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The parameters and batch-norm moments by name: the model's own
        arrays, not copies."""
        arrays = {name: p.values for name, p in self.params.items()}
        for i, st in enumerate(self.bn_states):
            arrays[f"backbone.{i}.bn.running_mean"] = st.running_mean
            arrays[f"backbone.{i}.bn.running_var"] = st.running_var
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        """Copy ``arrays`` into the model's own arrays, entry by entry.

        The names must be exactly those of ``state_arrays()``, and each array
        of the same shape (else ShapeError) and finite (else DataError); the
        error names the entry.  This is the one check of stored state.
        """
        state = self.state_arrays()
        missing, unknown = sorted(state.keys() - arrays), sorted(arrays.keys() - state)
        if missing or unknown:
            raise ShapeError(f"state entries do not match the model: missing "
                             f"{missing}, unknown {unknown}")
        for name, current in state.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != current.shape:
                raise ShapeError(
                    f"state entry {name!r} has shape {arr.shape}, expected {current.shape}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"state entry {name!r} has non-finite values")
            current[...] = arr


@dataclass
class FittedModel:
    """A trained model bundled with its quadrature rule and input scaler.

    Exposes ``curves_matrix`` on raw (unstandardized) covariates, the
    common surface shared with analytic ground-truth objects.
    """

    model: HazardModel
    rule: QuadratureRule
    scaler: Standardizer

    def curves_matrix(self, x_raw, grid):
        x = np.asarray(x_raw, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        return self.model.curves(self.scaler.transform(x), grid, self.rule)

    def survival_matrix(self, x_raw, grid):
        return self.curves_matrix(x_raw, grid)[2]
