"""Quadrature likelihood objective and the full training loop.

The per-batch loss is the mean over subjects of

    Lambda_hat(o_i | x_i) - delta_i * f(x_i, o_i)

with the cumulative hazard approximated as (o_i / 2) sum_k w_k
exp f(x_i, o_i tau_k).  Optimization is AdamW with a cosine learning-rate
schedule decaying to zero over the epoch budget; the returned parameters
are the snapshot with the best validation concordance (lower validation
integrated Brier score breaks ties).
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import metrics as mx
from .data import Standardizer, SurvivalData, stratified_split
from .errors import (ContractError, DegenerateDataError, NumericDomainError,
                     UsageError)
from .model import (ACTIVATIONS, CONDITIONING_KINDS, HazardModel, ModelConfig)
from .quadrature import MAX_ORDER, QuadratureRule, build_rule

SCHEMA_VERSION = 1


@dataclass
class TrainingConfig:
    k_nodes: int = 15
    learning_rate: float = 1e-2
    weight_decay: float = 1e-6
    dropout: float = 0.0
    batch_size: int = 128
    max_epochs: int = 200
    seed: int = 0
    conditioning: str = "lora"
    hidden: tuple = (32, 32)
    activation: str = "gelu"
    batchnorm: bool = False
    rank: int = 8
    time_embed_dim: int = 16
    modulation_hidden: int = 32
    val_fraction: float = 0.2
    grad_clip: float = 10.0
    val_grid_points: int = 64
    ctd_tie_tolerance: float = 2e-3

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if not 1 <= self.k_nodes <= MAX_ORDER:
            raise UsageError(f"k_nodes must be in [1, {MAX_ORDER}], got {self.k_nodes}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise UsageError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.val_fraction < 1.0:
            raise UsageError(
                f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.max_epochs < 1:
            raise UsageError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.conditioning not in CONDITIONING_KINDS:
            raise UsageError(f"unknown conditioning {self.conditioning!r}")
        if self.activation not in ACTIVATIONS:
            raise UsageError(f"unknown activation {self.activation!r}")
        if self.weight_decay < 0:
            raise UsageError("weight_decay must be >= 0")
        if self.grad_clip <= 0:
            raise UsageError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.val_grid_points < 2:
            raise UsageError(
                f"val_grid_points must be >= 2, got {self.val_grid_points}")

    def model_config(self, input_dim: int, time_scale: float = 1.0) -> ModelConfig:
        """``input_dim`` and ``time_scale`` come from the data, the rest from here.

        Every other ModelConfig field is read from the field of the same name,
        so a model field this config lacks fails loudly instead of defaulting.
        """
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig)
                  if f.name not in ("input_dim", "time_scale")}
        return ModelConfig(input_dim=input_dim, time_scale=time_scale, **shared)

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["hidden"] = list(self.hidden)
        d["schema_version"] = SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        d = {k: v for k, v in d.items() if k != "schema_version"}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        if "hidden" in d:
            d["hidden"] = tuple(d["hidden"])
        return cls(**d)


def cosine_lr(base_lr: float, epoch: int, t_max: int) -> float:
    """Cosine decay from base_lr at epoch 0 toward a floor of zero."""
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / t_max))


def _loss_times(times, rule: QuadratureRule) -> np.ndarray:
    """(b, K+1) times of the loss: the observed time, then the K node times."""
    all_times = np.empty((len(times), rule.order + 1))
    all_times[:, 0] = times
    all_times[:, 1:] = np.outer(times, rule.unit_nodes)
    return all_times


def _loss_terms(f_all: ad.Tensor, rule: QuadratureRule, times, events):
    """Per-subject event term and K-node cumulative hazard from the (b, K+1)
    log-hazards at ``_loss_times``."""
    b, k = len(times), rule.order
    f_obs = ad.reshape(ad.slice_cols(f_all, 0, 1), (b,))
    lam_nodes = ad.elementwise("exp", ad.slice_cols(f_all, 1, k + 1))
    w_const = np.broadcast_to(rule.weights, (b, k))
    cumhaz = ad.mul(ad.reduce_sum(ad.mul(lam_nodes, w_const), axis=1), times / 2.0)
    return ad.mul(f_obs, events), cumhaz


def nll_loss(model: HazardModel, rule: QuadratureRule, x, times, events,
             training: bool = False, rng=None) -> ad.Tensor:
    """Recorded scalar loss for one batch (graph-attached).

    The observed time and the K node times are evaluated in a single
    forward pass, so the covariate embedding is shared by the event and
    cumulative-hazard terms.
    """
    x = np.asarray(x, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.float64)
    b = len(times)
    if b == 0:
        raise ContractError("nll_loss requires a nonempty batch")
    try:
        f_all = model.forward_times_recorded(x, _loss_times(times, rule),
                                             training=training, rng=rng)
        event_term, cumhaz = _loss_terms(f_all, rule, times, events)
    except NumericDomainError as err:
        raise _locate_subject(err, b, rule.order + 1) from None
    return ad.mean(ad.sub(cumhaz, event_term))


def _locate_subject(err: NumericDomainError, batch: int, width: int):
    """Map a non-finite position in a (batch*width, ...) or (batch, width)
    intermediate back to the offending subject index."""
    subject = None
    if err.positions and err.shape:
        flat_row = err.positions[0] // max(int(np.prod(err.shape[1:])), 1)
        rows = err.shape[0]
        if rows == batch:
            subject = flat_row
        elif rows == batch * width:
            subject = flat_row // width
    detail = f" (subject index {subject})" if subject is not None else ""
    return NumericDomainError(f"non-finite loss{detail}: {err}",
                              positions=err.positions, shape=err.shape)


def nll_terms(model: HazardModel, rule: QuadratureRule, x, times, events):
    """Evaluation-mode per-subject terms (event term, cumulative hazard).

    The per-subject loss is ``cumhaz - event_term``; its batch mean equals
    ``nll_loss`` evaluated out of training mode.  A hazard that overflows at
    a node raises ``NumericDomainError``, as in ``nll_loss``.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.float64)
    f_all = ad.tensor(model.log_hazard_matrix(x, _loss_times(times, rule)))
    event_term, cumhaz = _loss_terms(f_all, rule, times, events)
    return event_term.values, cumhaz.values


# --- optimizer ----------------------------------------------------------------

class AdamWState:
    def __init__(self):
        self.step = 0
        self.moments: dict[str, tuple] = {}


def adamw_step(params: dict, grads: dict, state: AdamWState, lr: float,
               weight_decay: float, betas=(0.9, 0.999), eps: float = 1e-8) -> None:
    """One decoupled-weight-decay Adam update with bias correction."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.values), np.zeros_like(p.values))
        m, v = state.moments[name]
        if weight_decay:
            p.values *= (1.0 - lr * weight_decay)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.values -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def clip_gradients(grads: dict, max_norm: float) -> bool:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
        return True
    return False


# --- training loop -------------------------------------------------------------

@dataclass
class TrainResult:
    model: HazardModel
    scaler: Standardizer
    rule: QuadratureRule
    config: TrainingConfig
    log: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_ctd: float | None = None
    clip_events: int = 0
    abort_reason: str | None = None
    wall_clock: float = 0.0


def _validation_metrics(model, rule, scaler_x_val, val_times, val_events,
                        ghat, grid):
    try:
        event_term, cumhaz = nll_terms(model, rule, scaler_x_val, val_times, val_events)
        val_loss = float(np.mean(cumhaz - event_term))
    except NumericDomainError:
        # a hazard that overflows at a validation node: the loss is infinite
        # and the epoch is still scored by C_td
        val_loss = math.inf
    _, _, surv = model.curves(scaler_x_val, grid, rule)
    curves = mx.SurvivalCurves(grid, surv)
    horizon = grid[-1] * (1.0 + 1e-12)
    try:
        ctd = mx.c_index_td(curves, val_times, val_events, ghat, horizon).value
    except mx.UndefinedMetricError:
        ctd = None
    ibs = mx.integrated_brier_score(curves, val_times, val_events, ghat, grid[-1],
                                    n_points=min(len(grid), 50))
    return val_loss, ctd, ibs


def train(config: TrainingConfig, dataset: SurvivalData) -> TrainResult:
    """Fit a hazard model, returning the best-validation snapshot and log."""
    t_start = _time.perf_counter()
    if len(dataset) < 2:
        raise DegenerateDataError("need at least 2 subjects to train")
    if dataset.event.sum() == 0:
        raise DegenerateDataError("all subjects are censored; the likelihood "
                                  "has no event term")
    rng = np.random.default_rng(config.seed)
    train_idx, val_idx = stratified_split(dataset, config.val_fraction, rng)
    dtrain = dataset.subset(train_idx)
    dval = dataset.subset(val_idx)

    scaler = Standardizer().fit(dtrain.x)
    x_train = scaler.transform(dtrain.x)
    x_val = scaler.transform(dval.x)

    rule = build_rule(config.k_nodes)
    time_scale = float(np.quantile(dtrain.time, 0.95))
    if not time_scale > 0:
        time_scale = 1.0
    model = HazardModel(config.model_config(dataset.n_features, time_scale), rng)
    opt_state = AdamWState()

    ghat = mx.censoring_survival(dtrain.time, dtrain.event)
    positive = dtrain.time[dtrain.time > 0]
    grid_lo = float(positive.min()) if len(positive) else 1e-6
    # stay inside the censoring support, as the reporting horizons do
    horizon = mx.select_horizons(dtrain.time, dtrain.event, dval.time).full
    val_grid = np.linspace(grid_lo, max(horizon, grid_lo * (1 + 1e-9)),
                           config.val_grid_points)

    n = len(dtrain)
    log = []
    best = {"key": None, "state": None, "epoch": -1, "ctd": None, "ibs": None}
    clip_events = 0
    abort_reason = None

    for epoch in range(config.max_epochs):
        lr = cosine_lr(config.learning_rate, epoch, config.max_epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_clips = 0
        try:
            for start in range(0, n, config.batch_size):
                batch = order[start:start + config.batch_size]
                loss = nll_loss(model, rule, x_train[batch], dtrain.time[batch],
                                dtrain.event[batch], training=True, rng=rng)
                ad.zero_grad(model.params.values())
                ad.backward(loss)
                grads = {name: p.grad for name, p in model.params.items()
                         if p.grad is not None}
                if clip_gradients(grads, config.grad_clip):
                    epoch_clips += 1
                adamw_step(model.params, grads, opt_state, lr, config.weight_decay)
                epoch_loss += float(loss.values) * len(batch)
        except NumericDomainError as err:
            abort_reason = str(err)
        clip_events += epoch_clips

        if abort_reason is not None:
            break
        train_loss = epoch_loss / n
        val_loss, val_ctd, val_ibs = _validation_metrics(
            model, rule, x_val, dval.time, dval.event, ghat, val_grid)
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "val_loss": val_loss, "val_ctd": val_ctd, "lr": lr,
                    "val_ibs": val_ibs, "clipped_steps": epoch_clips})
        ctd_key = -1.0 if val_ctd is None else val_ctd
        # C_td differences below the tolerance are sampling noise at typical
        # validation sizes; treat them as ties and let IBS decide
        if best["key"] is None:
            better, new_key = True, ctd_key
        elif ctd_key > best["key"] + config.ctd_tie_tolerance:
            better, new_key = True, ctd_key
        elif ctd_key >= best["key"] - config.ctd_tie_tolerance \
                and val_ibs < best["ibs"]:
            # ratchet: a tie never lowers the incumbent bar
            better, new_key = True, max(ctd_key, best["key"])
        else:
            better, new_key = False, best["key"]
        if better:
            best.update(key=new_key, state=model.copy_state(), epoch=epoch,
                        ctd=val_ctd, ibs=val_ibs)

    if best["state"] is not None:
        model.load_state_arrays(best["state"])
    # on divergence with no completed epoch, the current parameters are the
    # last finite snapshot: the failing step raised before its update

    return TrainResult(model=model, scaler=scaler, rule=rule, config=config,
                       log=log, best_epoch=best["epoch"], best_val_ctd=best["ctd"],
                       clip_events=clip_events, abort_reason=abort_reason,
                       wall_clock=_time.perf_counter() - t_start)


def _json_number(value):
    """JSON has no infinity or NaN: a non-finite float is written as null
    (an infinite ``val_loss`` when a validation hazard overflows)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_log_ndjson(log, path) -> None:
    """Persist per-epoch records as newline-delimited strict JSON."""
    keys = ("epoch", "train_loss", "val_loss", "val_ctd", "lr")
    with open(path, "w") as fh:
        for rec in log:
            fh.write(json.dumps({k: _json_number(rec[k]) for k in keys},
                                allow_nan=False) + "\n")


# --- random hyperparameter search -------------------------------------------------

@dataclass
class SearchSpace:
    n_layers: tuple = (2, 3, 4)
    hidden: tuple = (32, 64, 128, 256)
    learning_rate: tuple = (1e-4, 1e-2)
    weight_decay: tuple = (1e-8, 1e-3)
    dropout: tuple = (0.0, 0.1, 0.3, 0.5)
    batch_size: tuple = (64, 128, 256)
    batchnorm: tuple = (True, False)

    def sample(self, rng) -> dict:
        log_lr = rng.uniform(math.log(self.learning_rate[0]),
                             math.log(self.learning_rate[1]))
        log_wd = rng.uniform(math.log(self.weight_decay[0]),
                             math.log(self.weight_decay[1]))
        width = int(rng.choice(self.hidden))
        return {
            "hidden": (width,) * int(rng.choice(self.n_layers)),
            "learning_rate": math.exp(log_lr),
            "weight_decay": math.exp(log_wd),
            "dropout": float(rng.choice(self.dropout)),
            "batch_size": int(rng.choice(self.batch_size)),
            "batchnorm": bool(rng.choice(np.asarray(self.batchnorm))),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        d = {k: v for k, v in d.items() if k != "schema_version"}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown search-space fields: {sorted(unknown)}")
        return cls(**{k: tuple(v) for k, v in d.items()})


@dataclass
class TrialRecord:
    index: int
    config: TrainingConfig
    val_ctd: float | None
    val_ibs: float | None
    error: str | None = None


def random_search(space: SearchSpace, trials: int, dataset: SurvivalData,
                  base_config: TrainingConfig | None = None):
    """Random search over the tabular space, selected on validation C_td.

    Ties on C_td break toward the lower validation integrated Brier score.
    A failing trial is recorded with its error and skipped.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    base = base_config if base_config is not None else TrainingConfig()
    rng = np.random.default_rng(base.seed)
    sampled = [space.sample(rng) for _ in range(trials)]
    trial_seeds = rng.integers(0, 2 ** 31 - 1, size=trials)
    configs = [replace(base, seed=int(trial_seeds[i]), **sampled[i])
               for i in range(trials)]

    records, best_rec, best_res = [], None, None
    for i, cfg in enumerate(configs):
        try:
            res = train(cfg, dataset)
            ibs = res.log[res.best_epoch]["val_ibs"] if res.log else None
            rec = TrialRecord(i, cfg, res.best_val_ctd, ibs)
        except Exception as err:  # noqa: BLE001 - trial isolation is the contract
            records.append(TrialRecord(i, cfg, None, None, error=str(err)))
            continue
        records.append(rec)
        if rec.val_ctd is not None and (
                best_rec is None or trial_sort_key(rec) > trial_sort_key(best_rec)):
            best_rec, best_res = rec, res
    if best_res is None:
        raise DegenerateDataError("every search trial failed")
    return best_rec, best_res, records


def trial_sort_key(rec: TrialRecord):
    """Selection order: maximize validation C_td, break ties on lower IBS."""
    ctd = -math.inf if rec.val_ctd is None else rec.val_ctd
    ibs = math.inf if rec.val_ibs is None else rec.val_ibs
    return (ctd, -ibs)
