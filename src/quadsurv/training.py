"""Quadrature likelihood objective and the full training loop.

The per-batch loss is the mean over subjects of

    Lambda_hat(o_i | x_i) - delta_i * f(x_i, o_i)

with the cumulative hazard approximated as (o_i / 2) sum_k w_k
exp f(x_i, o_i tau_k) by ``QuadratureRule.cumhaz``.  Optimization is AdamW
with a cosine learning-rate schedule decaying to zero over the epoch
budget; the returned parameters are the snapshot with the best validation
concordance (lower validation integrated Brier score breaks ties).  A step
whose log-hazards, cumulative hazards or gradient norm are not finite raises
``NumericDomainError`` before its update, and training stops there.
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
from .model import (Architecture, FittedModel, HazardModel, ModelConfig,
                    check_types, config_from_dict)
from .quadrature import MAX_ORDER, QuadratureRule, build_rule

# C_td differences below this are sampling noise at typical validation
# sizes; the epoch selection treats them as ties and lets IBS decide
CTD_TIE_TOLERANCE = 2e-3
ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPS = 1e-8


@dataclass
class TrainingConfig(Architecture):
    """Optimization settings on top of the network shape; every field is
    converted to its annotated type and range-checked on construction."""

    k_nodes: int = 15
    learning_rate: float = 1e-2
    weight_decay: float = 1e-6
    batch_size: int = 128
    max_epochs: int = 200
    seed: int = 0
    val_fraction: float = 0.2
    grad_clip: float = 10.0
    val_grid_points: int = 64

    RANGES = {
        **Architecture.RANGES,
        "k_nodes": (lambda v: 1 <= v <= MAX_ORDER,
                    f"k_nodes must be in [1, {MAX_ORDER}], got {{}}"),
        "learning_rate": (lambda v: v > 0, "learning_rate must be > 0, got {}"),
        "weight_decay": (lambda v: v >= 0, "weight_decay must be >= 0, got {}"),
        "batch_size": (lambda v: v >= 1, "batch_size must be >= 1, got {}"),
        "max_epochs": (lambda v: v >= 1, "max_epochs must be >= 1, got {}"),
        "seed": (lambda v: v >= 0, "seed must be >= 0, got {}"),
        "val_fraction": (lambda v: 0.0 < v < 1.0, "val_fraction must be in (0, 1), got {}"),
        "grad_clip": (lambda v: v > 0, "grad_clip must be > 0, got {}"),
        "val_grid_points": (lambda v: v >= 2, "val_grid_points must be >= 2, got {}"),
    }

    def model_config(self, input_dim: int, time_scale: float = 1.0) -> ModelConfig:
        """``input_dim`` and ``time_scale`` come from the data, the rest from here."""
        shape = {f.name: getattr(self, f.name) for f in fields(Architecture)}
        return ModelConfig(input_dim=input_dim, time_scale=time_scale, **shape)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        return config_from_dict(cls, d)


def cosine_lr(base_lr: float, epoch: int, t_max: int) -> float:
    """Cosine decay from base_lr at epoch 0 toward a floor of zero."""
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * epoch / t_max))


def _terms(f, rule: QuadratureRule, times, events):
    """Per-subject delta f(x, t) and Lambda from the (b, K+1) log-hazards at
    ``rule.points(times)``; NumericDomainError naming the first subject whose
    Lambda is not finite (its hazard overflows at a node)."""
    with np.errstate(over="ignore"):
        cumhaz = rule.cumhaz(np.exp(f[:, 1:]).T, times)
    bad = np.flatnonzero(~np.isfinite(cumhaz))
    if len(bad):
        raise NumericDomainError(f"non-finite loss (subject index {bad[0]}): "
                                 f"non-finite values produced by the cumulative hazard")
    return events * f[:, 0], cumhaz


def nll_loss(model: HazardModel, rule: QuadratureRule, x, times, events,
             training: bool = False, rng=None) -> ad.Tensor:
    """Recorded scalar loss for one batch (graph-attached).

    The observed time and the K node times are evaluated in a single
    forward pass, so the covariate embedding is shared by the event and
    cumulative-hazard terms.  The batch mean is one op with its own gradient.
    A log-hazard or Lambda that is not finite raises NumericDomainError
    naming the subject's index in the batch.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.float64)
    b = len(times)
    if b == 0:
        raise ContractError("nll_loss requires a nonempty batch")
    f = model.forward(model.params, x, rule.points(times),
                      training=training, rng=rng)
    event_term, cumhaz = _terms(f.values, rule, times, events)

    def grad_f(g):
        # d/df_obs = -delta / b; d/df_k = (t/2) w_k exp f_k / b
        scale = g / b
        grad = np.empty_like(f.values)
        grad[:, 0] = -scale * events
        grad[:, 1:] = ((scale * (times / 2.0))[:, None] * rule.weights
                       * np.exp(f.values[:, 1:]))
        return grad

    return ad.record(np.mean(cumhaz - event_term), (f, grad_f))


def nll_terms(model: HazardModel, rule: QuadratureRule, x, times, events):
    """Evaluation-mode per-subject terms (event term, cumulative hazard).

    The per-subject loss is ``cumhaz - event_term``; its batch mean equals
    ``nll_loss`` evaluated out of training mode.  A hazard that overflows at
    a node raises ``NumericDomainError``, as in ``nll_loss``.
    """
    return _terms(model.log_hazard_matrix(x, rule.points(times)), rule, times, events)


# --- optimizer ----------------------------------------------------------------

class AdamWState:
    def __init__(self):
        self.step = 0
        self.moments: dict[str, tuple] = {}


def adamw_step(params: dict, grads: dict, state: AdamWState, lr: float,
               weight_decay: float) -> None:
    """One decoupled-weight-decay Adam update with bias correction."""
    b1, b2 = ADAM_BETAS
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
        p.values -= lr * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)


def clip_gradients(grads: dict, max_norm: float) -> bool:
    """Scale ``grads`` in place to a global L2 norm of at most ``max_norm``;
    True if they were scaled.  NumericDomainError if the norm is not finite
    (a NaN gradient, or a square that overflows)."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NumericDomainError(f"non-finite gradient norm ({norm})")
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
        return True
    return False


# --- training loop -------------------------------------------------------------

@dataclass
class TrainResult(FittedModel):
    """The fitted model of a run, with its config, per-epoch log and outcome."""

    config: TrainingConfig
    log: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_ctd: float | None = None
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
            # validation curves that are not finite end training as a failing
            # step does: this epoch is not logged
            val_loss, val_ctd, val_ibs = _validation_metrics(
                model, rule, x_val, dval.time, dval.event, ghat, val_grid)
        except NumericDomainError as err:
            abort_reason = str(err)

        if abort_reason is not None:
            break
        train_loss = epoch_loss / n
        log.append({"epoch": epoch, "train_loss": train_loss,
                    "val_loss": val_loss, "val_ctd": val_ctd, "lr": lr,
                    "val_ibs": val_ibs, "clipped_steps": epoch_clips})
        ctd_key = -1.0 if val_ctd is None else val_ctd
        if best["key"] is None:
            better, new_key = True, ctd_key
        elif ctd_key > best["key"] + CTD_TIE_TOLERANCE:
            better, new_key = True, ctd_key
        elif ctd_key >= best["key"] - CTD_TIE_TOLERANCE \
                and val_ibs < best["ibs"]:
            # ratchet: a tie never lowers the incumbent bar
            better, new_key = True, max(ctd_key, best["key"])
        else:
            better, new_key = False, best["key"]
        if better:
            best.update(key=new_key, epoch=epoch,
                        state={k: v.copy() for k, v in model.state_arrays().items()},
                        ctd=val_ctd, ibs=val_ibs)

    if best["state"] is not None:
        model.load_state_arrays(best["state"])
    # on divergence with no completed epoch, the current parameters are the
    # last finite snapshot: the failing step raised before its update (a
    # failing first validation keeps the finite parameters it scored)

    return TrainResult(model=model, rule=rule, scaler=scaler, config=config,
                       log=log, best_epoch=best["epoch"], best_val_ctd=best["ctd"],
                       abort_reason=abort_reason,
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
    """Log-uniform ranges [lo, hi] for ``learning_rate`` and ``weight_decay``,
    choice lists for the rest; a trial has ``n_layers`` layers of one width."""

    n_layers: tuple[int, ...] = (2, 3, 4)
    hidden: tuple[int, ...] = (32, 64, 128, 256)
    learning_rate: tuple[float, float] = (1e-4, 1e-2)
    weight_decay: tuple[float, float] = (1e-8, 1e-3)
    dropout: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    batch_size: tuple[int, ...] = (64, 128, 256)
    batchnorm: tuple[bool, ...] = (True, False)

    def __post_init__(self):
        check_types(self)
        for name in ("learning_rate", "weight_decay"):
            lo, hi = getattr(self, name)
            if not 0 < lo < hi:
                raise UsageError(f"{name} must be a range [lo, hi] with "
                                 f"0 < lo < hi, got {[lo, hi]}")
        for f in fields(self):
            if not getattr(self, f.name):
                raise UsageError(f"{f.name} must list at least one choice")
        if min(self.n_layers) < 1:
            raise UsageError(f"n_layers choices must be >= 1, got {self.n_layers}")
        # a choice outside its field's range would fail every trial that drew it
        choices = {"hidden": [(w,) for w in self.hidden], "dropout": self.dropout,
                   "batch_size": self.batch_size}
        for name, values in choices.items():
            for value in values:
                TrainingConfig.check_range(name, value)

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
        return config_from_dict(cls, d)


@dataclass
class TrialRecord:
    index: int
    sample: dict  # the hyperparameters drawn for the trial
    val_ctd: float | None
    val_ibs: float | None
    error: str | None = None


def random_search(space: SearchSpace, trials: int, dataset: SurvivalData,
                  base_config: TrainingConfig | None = None):
    """Random search over the tabular space, selected on validation C_td.

    Ties on C_td break toward the lower validation integrated Brier score.
    A failing trial, including one whose sampled architecture the model
    rejects, is recorded with its error and skipped.  Returns the best
    record, its result and every record; the first two are None when no
    trial has a validation C_td.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    base = base_config if base_config is not None else TrainingConfig()
    rng = np.random.default_rng(base.seed)
    sampled = [space.sample(rng) for _ in range(trials)]
    trial_seeds = rng.integers(0, 2 ** 31 - 1, size=trials)

    records, best_rec, best_res = [], None, None
    for i, sample in enumerate(sampled):
        try:
            res = train(replace(base, seed=int(trial_seeds[i]), **sample), dataset)
            ibs = res.log[res.best_epoch]["val_ibs"] if res.log else None
            rec = TrialRecord(i, sample, res.best_val_ctd, ibs)
        except Exception as err:  # noqa: BLE001 - trial isolation is the contract
            records.append(TrialRecord(i, sample, None, None, error=str(err)))
            continue
        records.append(rec)
        if rec.val_ctd is not None and (
                best_rec is None or trial_sort_key(rec) > trial_sort_key(best_rec)):
            best_rec, best_res = rec, res
    return best_rec, best_res, records


def trial_sort_key(rec: TrialRecord):
    """Selection order: maximize validation C_td, break ties on lower IBS."""
    ctd = -math.inf if rec.val_ctd is None else rec.val_ctd
    ibs = math.inf if rec.val_ibs is None else rec.val_ibs
    return (ctd, -ibs)
