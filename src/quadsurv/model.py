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

Each head is written once, in ``HazardModel._forward`` over autodiff ops,
for per-subject times (the loss) and for a time grid shared by every
subject (dense curves).  Training runs it on the parameters, which records
the graph; evaluation runs it on constant views of the same arrays, which
records nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .errors import ContractError, IngestionError, ShapeError, UsageError
from .quadrature import QuadratureRule

CONDITIONING_KINDS = ("concat", "film", "lora")
ACTIVATIONS = ("tanh", "softplus", "gelu", "sigmoid", "relu")
CHUNK_CELLS = 16_000_000  # bound on one chunk of ``HazardModel.curves``


@dataclass
class ModelConfig:
    input_dim: int
    hidden: tuple = (32, 32)
    activation: str = "gelu"
    conditioning: str = "lora"
    rank: int = 8
    time_embed_dim: int = 16
    modulation_hidden: int = 32
    batchnorm: bool = False
    dropout: float = 0.0
    time_scale: float = 1.0

    def __post_init__(self):
        if not (self.time_scale > 0 and math.isfinite(self.time_scale)):
            raise UsageError(f"time_scale must be positive, got {self.time_scale}")
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.input_dim < 1:
            raise UsageError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise UsageError(f"hidden sizes must be positive, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")
        if self.conditioning not in CONDITIONING_KINDS:
            raise UsageError(f"unknown conditioning {self.conditioning!r}")
        if self.conditioning == "lora" and self.rank >= self.hidden[-1]:
            raise UsageError(
                f"low-rank head needs rank < embedding width, got rank={self.rank} "
                f"for width {self.hidden[-1]}")
        if self.time_embed_dim < 2:
            raise UsageError("time_embed_dim must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise UsageError(f"dropout must be in [0, 1), got {self.dropout}")

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``as_dict``; every field must be present and no other.

        The dict comes from a checkpoint file, so a key mismatch is a data error.
        """
        names = {f.name for f in fields(cls)}
        missing, unknown = sorted(names - set(d)), sorted(set(d) - names)
        if missing or unknown:
            raise IngestionError(
                f"architecture keys do not match ModelConfig: missing {missing}, "
                f"unknown {unknown}")
        return cls(**d)


def _glorot(rng, d_out, d_in):
    limit = math.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-limit, limit, size=(d_out, d_in))


class HazardModel:
    """All learnable state of a log-hazard network f(x, t)."""

    def __init__(self, config: ModelConfig, rng=None):
        self.config = config
        self.params: dict[str, ad.Tensor] = {}
        self.bn_states: list[ad.BatchNormState] = []
        if rng is None:
            rng = np.random.default_rng(0)
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

    def _forward(self, p, x, times, training=False, rng=None) -> ad.Tensor:
        """Log-hazard tensor of shape (batch, n_times).

        ``x`` is (batch, d).  ``times`` is either (batch, n_times), entry
        (i, j) giving f(x_i, times[i, j]), or a 1-d grid of n_times shared by
        every subject.  ``p`` maps parameter names to tensors:
        ``self.params`` records the graph, ``self._constants()`` does not.

        ``film`` and ``lora`` factorise as f(x_i, t) = a_i . c(t) + bias(t),
        with a per-subject row a and per-time rows c and bias, so the head and
        the base products run once per subject and each extra time costs the
        time branch and one dot product.
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise ShapeError(
                f"covariates have shape {x.shape}, expected (batch, {cfg.input_dim})")
        if times.ndim not in (1, 2) or (times.ndim == 2 and times.shape[0] != x.shape[0]):
            raise ShapeError(
                f"times have shape {times.shape}, expected ({x.shape[0]}, n) or (n,)")
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
            return ad.linear(c, a) if bias is None else ad.affine(c, bias, a)
        f = ad.reduce_sum(ad.mul(ad.tile_rows(a, r), c), axis=1)
        return ad.reshape(f if bias is None else ad.add(f, bias), (b, r))

    def forward_times_recorded(self, x, times, training=False, rng=None):
        """Recorded (differentiable) log-hazards; see ``_forward``."""
        return self._forward(self.params, x, times, training, rng)

    def log_hazard_matrix(self, x, times):
        """Evaluation-mode log-hazards as a (batch, n_times) array; see ``_forward``."""
        return self._forward(self._constants(), x, times).values

    def _eval_backbone(self, x):
        return self._backbone(self._constants(), ad.tensor(x), False, None).values

    # --- public scalar / curve API --------------------------------------

    def log_hazard(self, x, t: float) -> float:
        """f(x, t) for one subject, deterministic in evaluation mode."""
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if not math.isfinite(t) or t < 0:
            raise ContractError(f"time must be finite and nonnegative, got {t}")
        return float(self.log_hazard_matrix(x, np.array([[t]]))[0, 0])

    def log_hazard_at_nodes(self, x, t: float, rule: QuadratureRule) -> np.ndarray:
        """f(x, t * tau_k) for every quadrature node, in one forward pass."""
        x = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if not math.isfinite(t) or t < 0:
            raise ContractError(f"time must be finite and nonnegative, got {t}")
        times = (t * rule.unit_nodes)[None, :]
        return self.log_hazard_matrix(x, times)[0]

    def curves(self, x, grid, rule: QuadratureRule):
        """Hazard, cumulative hazard and survival over a shared time grid.

        Returns three arrays of shape (n_subjects, len(grid)).  Each chunk of
        grid points is one forward pass over the points, then their K node
        times.  A chunk holds at most ``CHUNK_CELLS`` backbone activations
        (``concat``, n (K+1) sum(hidden) per point) or output cells (``film``
        and ``lora``, n (K+1) per point), and at least one point, so with
        very large n memory grows linearly in n.
        """
        x = np.asarray(x, dtype=np.float64)
        grid = np.asarray(grid, dtype=np.float64)
        if grid.ndim != 1 or len(grid) == 0:
            raise ContractError("grid must be a nonempty 1-d array")
        if np.any(np.diff(grid) < 0) or grid[0] < 0:
            raise ContractError("grid must be ascending and nonnegative")
        n, g, k = x.shape[0], len(grid), rule.order
        width = sum(self.config.hidden) if self.config.conditioning == "concat" else 1
        chunk = max(1, CHUNK_CELLS // max(n * (k + 1) * width, 1))

        p = self._constants()
        lam, cumhaz = np.empty((n, g)), np.empty((n, g))
        for start in range(0, g, chunk):
            block = grid[start:start + chunk]
            m = len(block)
            times = np.concatenate([block, np.outer(block, rule.unit_nodes).ravel()])
            lam_all = np.exp(self._forward(p, x, times).values)
            lam[:, start:start + m] = lam_all[:, :m]
            lam_nodes = lam_all[:, m:].reshape(n, m, k)
            cumhaz[:, start:start + m] = (block / 2.0) * (lam_nodes @ rule.weights)
        return lam, cumhaz, np.exp(-cumhaz)

    # --- serialization ---------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: p.values for name, p in self.params.items()}
        for i, st in enumerate(self.bn_states):
            arrays[f"backbone.{i}.bn.running_mean"] = st.running_mean
            arrays[f"backbone.{i}.bn.running_var"] = st.running_var
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        for name, p in self.params.items():
            if name not in arrays:
                raise ShapeError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.values.shape:
                raise ShapeError(
                    f"parameter {name!r} has shape {arr.shape}, expected {p.values.shape}")
            p.values = arr.copy()
        for i, st in enumerate(self.bn_states):
            st.running_mean = np.asarray(arrays[f"backbone.{i}.bn.running_mean"],
                                         dtype=np.float64).copy()
            st.running_var = np.asarray(arrays[f"backbone.{i}.bn.running_var"],
                                        dtype=np.float64).copy()

    def copy_state(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.state_arrays().items()}

    @classmethod
    def from_architecture(cls, arch: dict, arrays: dict | None = None) -> "HazardModel":
        model = cls(ModelConfig.from_dict(arch), np.random.default_rng(0))
        if arrays is not None:
            model.load_state_arrays(arrays)
        return model


@dataclass
class FittedModel:
    """A trained model bundled with its quadrature rule and input scaler.

    Exposes ``curves_matrix`` on raw (unstandardized) covariates, the
    common surface shared with analytic ground-truth objects.
    """

    model: HazardModel
    rule: QuadratureRule
    scaler: object = None

    def _standardize(self, x_raw):
        x = np.asarray(x_raw, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        return self.scaler.transform(x) if self.scaler is not None else x

    def curves_matrix(self, x_raw, grid):
        return self.model.curves(self._standardize(x_raw), grid, self.rule)

    def survival_matrix(self, x_raw, grid):
        return self.curves_matrix(x_raw, grid)[2]
