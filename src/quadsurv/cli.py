"""Command-line pipelines: simulate, train, evaluate, predict, sweep, search.

Every command is a pure function of its inputs and the seed; outputs are
written with deterministic formatting and each run records a manifest with
content hashes of everything read and written.  Exit codes: 0 success,
2 usage, 3 data, 4 numeric, 5 internal.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import sys
import time as _time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import metrics as mx
from .data import (Standardizer, load_covariates, load_csv, save_csv,
                   write_columns as _write_rows)
from .errors import (DataError, DegenerateDataError, IngestionError,
                     NumericDomainError, QuadSurvError, UsageError)
from .model import FittedModel, HazardModel, ModelConfig, config_from_dict
from .quadrature import build_rule
from .simulation import (FAMILIES, GeneratorSpec, evaluation_grid, generate,
                         l1_error, marginalized_curves)
from .training import (SearchSpace, TrainingConfig, random_search, train,
                       write_log_ndjson)

SCHEMA_VERSION = 1

# fixed protocol for simulation runs: small tanh net, as in the node studies
SIM_PROTOCOL = dict(hidden=(32, 32), activation="tanh", conditioning="lora",
                    learning_rate=1e-2, weight_decay=1e-6, dropout=0.0,
                    batch_size=256, max_epochs=120, val_grid_points=48)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, args, seed, config_payload,
                    inputs, outputs, t_start) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "argv": args.argv,
        "seed": seed,
        "config_hash": _config_hash(config_payload),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "wall_clock_s": _time.perf_counter() - t_start,
        "library_version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_checkpoint(path: Path, fitted: FittedModel, columns) -> None:
    """Write ``fitted`` and its covariate names; ``load_checkpoint`` is the
    inverse.  Arrays are base64 little-endian float64."""
    _write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "architecture": {**asdict(fitted.model.config), "k_nodes": fitted.rule.order},
        "standardization": {"mean": fitted.scaler.mean.tolist(),
                            "scale": fitted.scaler.scale.tolist(),
                            "columns": list(columns)},
        "params": {name: {"shape": list(a.shape),
                          "data": base64.b64encode(a.astype("<f8").tobytes()).decode()}
                   for name, a in fitted.model.state_arrays().items()},
    })


def load_checkpoint(path):
    """The (FittedModel, covariate names) that ``_write_checkpoint`` wrote.

    Any fault of the file is a data error naming it: not JSON; a missing
    section or entry; an architecture field that is missing, unknown or
    rejected; a parameter or batch-norm moment that is missing, unknown, of
    another shape or not finite; a column list, means or scales that are not
    1-d of the model's input width; columns that are not distinct names; a
    mean or scale that is not finite, or a scale that is not positive.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        arch = dict(payload["architecture"])
        rule = build_rule(arch.pop("k_nodes"))
        model = HazardModel(config_from_dict(ModelConfig, arch, complete=True),
                            np.random.default_rng(0))
        model.load_state_arrays({
            name: np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
            .reshape(entry["shape"]) for name, entry in payload["params"].items()})
        std = payload["standardization"]
        columns = tuple(std["columns"])
        mean, scale = (np.asarray(std[k], dtype=np.float64) for k in ("mean", "scale"))
    except KeyError as err:
        raise IngestionError(f"{path}: checkpoint has no entry {err}") from None
    except (OSError, AttributeError, TypeError, ValueError, UsageError,
            DataError) as err:
        raise IngestionError(f"{path}: not a valid checkpoint: {err}") from None
    d = model.config.input_dim
    if (len(columns), mean.shape, scale.shape) != (d, (d,), (d,)):
        raise IngestionError(
            f"{path}: standardization has {len(columns)} columns, means of shape "
            f"{mean.shape} and scales of shape {scale.shape}; the model's input "
            f"width is {d}")
    if not all(isinstance(c, str) for c in columns) or len(set(columns)) != d:
        raise IngestionError(f"{path}: standardization columns must be distinct "
                             f"names, got {list(columns)}")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale)) and np.all(scale > 0)):
        raise IngestionError(f"{path}: standardization means must be finite "
                             f"and scales finite and positive")
    return FittedModel(model, rule, Standardizer(mean, scale)), columns


def _read_json_object(path, parse):
    """The JSON object in ``path`` and ``parse`` of it.  A file that is not a
    readable JSON object is a data error, a key or value ``parse`` rejects a
    usage error; both name the file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as err:
        raise IngestionError(f"{path}: not a readable JSON file: {err}") from None
    if not isinstance(payload, dict):
        raise IngestionError(
            f"{path}: expected a JSON object, got {type(payload).__name__}")
    try:
        return payload, parse(payload)
    except UsageError as err:
        raise UsageError(f"{path}: {err}") from None


# --- commands -----------------------------------------------------------------

def cmd_simulate(args) -> int:
    t0 = _time.perf_counter()
    spec = GeneratorSpec(family=args.family, n_train=args.n_train,
                         n_test=args.n_test, censoring_target=args.censoring)
    sim = generate(spec, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(sim.train, out / "train.csv")
    save_csv(sim.test, out / "test.csv")

    grid = evaluation_grid(sim.train.time)
    groups = sim.truth.entry.groups
    curves = [sim.truth.curves_matrix(np.array([row]), grid) for _, row in groups]
    curves.append(marginalized_curves(sim.truth, sim.train.x, grid))
    _write_rows(out / "truth.csv", ["t", "lambda", "cumhaz", "survival", "group"],
                [np.tile(grid, len(curves)), *(np.vstack(f).ravel() for f in zip(*curves)),
                 np.repeat([*(name for name, _ in groups), "marginal"], len(grid))])

    config_payload = {"family": args.family, "seed": args.seed,
                      "n_train": args.n_train, "n_test": args.n_test,
                      "censoring": args.censoring}
    _write_manifest(out, args, args.seed, config_payload, [],
                    [out / "train.csv", out / "test.csv", out / "truth.csv"], t0)
    print(f"wrote {args.n_train}+{args.n_test} subjects to {out} "
          f"(realized censoring {sim.realized_censoring:.3f})")
    return 0


def _load_training_config(args) -> TrainingConfig:
    _, cfg = _read_json_object(args.config, TrainingConfig.from_dict)
    flags = {"seed": args.seed, "k_nodes": args.k_nodes, "conditioning": args.conditioning}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def cmd_train(args) -> int:
    t0 = _time.perf_counter()
    cfg = _load_training_config(args)
    data = load_csv(args.train_csv)
    result = train(cfg, data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_checkpoint(out / "checkpoint.json", result, data.columns)
    write_log_ndjson(result.log, out / "log.ndjson")
    _write_manifest(out, args, cfg.seed,
                    {**asdict(cfg), "schema_version": SCHEMA_VERSION},
                    [args.config, args.train_csv],
                    [out / "checkpoint.json", out / "log.ndjson"], t0)
    status = ("completed" if result.abort_reason is None
              else f"aborted ({result.abort_reason})")
    print(f"training {status}; best epoch {result.best_epoch} "
          f"(val C_td {result.best_val_ctd}); wall clock {result.wall_clock:.1f}s")
    return 0


def _finite_curves(fitted: FittedModel, x, grid):
    """``fitted.curves_matrix(x, grid)``, or NumericDomainError at the first
    subject row and grid time where the hazard or cumulative hazard is not finite."""
    lam, cumhaz, surv = fitted.curves_matrix(x, grid)
    bad = np.argwhere(~(np.isfinite(lam) & np.isfinite(cumhaz)))
    if len(bad):
        raise NumericDomainError(
            f"hazard or cumulative hazard is not finite for subject row {bad[0, 0]} "
            f"at grid time {float(grid[bad[0, 1]])!r}")
    return lam, cumhaz, surv


def cmd_evaluate(args) -> int:
    t0 = _time.perf_counter()
    fitted, columns = load_checkpoint(args.checkpoint)
    test = load_csv(args.test_csv, columns)
    train_data = load_csv(args.train_csv, columns)

    def curves_fn(grid):
        return _finite_curves(fitted, test.x, grid)[2]

    report = mx.evaluation_report(curves_fn, train_data.time, train_data.event,
                                  test.time, test.event)
    report["schema_version"] = SCHEMA_VERSION
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, report)
    _write_manifest(out.parent, args, None,
                    {"checkpoint": str(args.checkpoint)},
                    [args.checkpoint, args.test_csv, args.train_csv], [out], t0)
    print(json.dumps({h: report["horizons"][h]["ctd"] for h in report["horizons"]}))
    return 0


def _load_covariates(path, columns):
    return load_covariates(path, columns)


def cmd_predict(args) -> int:
    t0 = _time.perf_counter()
    if args.grid_points < 1:
        raise UsageError(f"--grid-points must be at least 1, got {args.grid_points}")
    fitted, columns = load_checkpoint(args.checkpoint)
    x = _load_covariates(args.covariates_csv, columns)
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    lam, ch, s = _finite_curves(fitted, x, grid)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, ["subject_id", "t", "hazard", "cumhaz", "survival"],
                [np.repeat(np.arange(len(x)), len(grid)), np.tile(grid, len(x)),
                 lam.ravel(), ch.ravel(), s.ravel()])
    _write_manifest(out.parent, args, None,
                    {"grid_min": args.grid_min, "grid_max": args.grid_max,
                     "grid_points": args.grid_points},
                    [args.checkpoint, args.covariates_csv], [out], t0)
    print(f"wrote {lam.size} curve rows to {out}")
    return 0


def _int_list(text: str, flag: str, minimum: int) -> list:
    """Comma-separated integers, at least one, none below ``minimum``."""
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values or min(values) < minimum:
        raise UsageError(f"{flag} takes one or more comma-separated integers "
                         f">= {minimum}, got {text!r}")
    return values


def cmd_sweep_nodes(args) -> int:
    t0 = _time.perf_counter()
    k_list = _int_list(args.k_list, "--k-list", 1)
    seeds = _int_list(args.seeds, "--seeds", 0)
    base = dict(SIM_PROTOCOL)
    if args.epochs is not None:
        base["max_epochs"] = args.epochs

    def run_cell(sim, grid, seed, k):
        cfg = TrainingConfig(seed=seed, k_nodes=k, **base)
        try:
            result = train(cfg, sim.train)
            iae = l1_error(result, sim.truth, sim.test.x, grid)
            if not np.all(np.isfinite(iae)):
                # the fit's hazard overflows on the grid: an error, as in predict
                raise NumericDomainError("non-finite IAE: survival {!r}, cumhaz {!r}, "
                                         "hazard {!r}".format(*iae))
            return (args.family, k, seed, *iae, result.wall_clock, "")
        except QuadSurvError as err:
            return (args.family, k, seed, "", "", "", "", str(err))

    rows = []
    for seed in seeds:
        sim = generate(GeneratorSpec(family=args.family), seed)
        grid = evaluation_grid(sim.train.time)
        rows.extend(run_cell(sim, grid, seed, k) for k in k_list)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, ["family", "k", "seed", "iae_survival", "iae_cumhaz",
                      "iae_hazard", "wall_clock_s", "error"], list(zip(*rows)))
    _write_manifest(out.parent, args, seeds,
                    {"family": args.family, "k_list": k_list, "seeds": seeds,
                     "protocol": {**base, "hidden": list(base["hidden"])}},
                    [], [out], t0)
    print(f"wrote {len(rows)} sweep cells to {out}")
    return 0


def cmd_hpo(args) -> int:
    t0 = _time.perf_counter()
    space_payload, space = _read_json_object(args.space, SearchSpace.from_dict)
    data = load_csv(args.train_csv)
    base = TrainingConfig(seed=args.seed, max_epochs=args.epochs)
    best_rec, best_res, records = random_search(
        space, args.trials, data, base_config=base)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(r.index, len(r.sample["hidden"]), r.sample["hidden"][0],
             r.sample["learning_rate"], r.sample["weight_decay"],
             r.sample["dropout"], r.sample["batch_size"], r.sample["batchnorm"],
             r.val_ctd, r.val_ibs, r.error) for r in records]
    _write_rows(out / "trials.csv",
                ["trial", "n_layers", "hidden", "learning_rate", "weight_decay",
                 "dropout", "batch_size", "batchnorm", "val_ctd", "val_ibs",
                 "error"], list(zip(*rows)))
    if best_res is None:
        errors = [r.error for r in records if r.error is not None]
        first = f" (first: {errors[0]})" if errors else ""
        raise DegenerateDataError(
            f"no search trial has a validation C_td: {len(errors)} of {args.trials} "
            f"raised an error{first}, {args.trials - len(errors)} had an undefined C_td")
    _write_checkpoint(out / "checkpoint.json", best_res, data.columns)
    _write_manifest(out, args, args.seed,
                    {"space": space_payload, "trials": args.trials},
                    [args.space, args.train_csv],
                    [out / "checkpoint.json", out / "trials.csv"], t0)
    print(f"best trial {best_rec.index}: val C_td {best_rec.val_ctd:.4f}")
    return 0


def cmd_rule(args) -> int:
    rule = build_rule(args.k_nodes)
    payload = rule.as_dict()
    if args.out:
        _write_json(Path(args.out), payload)
    else:
        print(json.dumps(payload, indent=2))
    return 0


# --- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsurv",
        description="Continuous-time hazard modeling with quadrature likelihoods")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic benchmark dataset")
    p.add_argument("family", help=f"one of {', '.join(FAMILIES)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--censoring", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="fit a hazard model from a CSV")
    p.add_argument("config", help="training config JSON")
    p.add_argument("train_csv")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k-nodes", type=int, default=None)
    p.add_argument("--conditioning", choices=("concat", "film", "lora"),
                   default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="censoring-aware metrics on a test CSV")
    p.add_argument("checkpoint")
    p.add_argument("test_csv")
    p.add_argument("train_csv", help="training split used for the censoring KM")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="per-subject hazard and survival curves")
    p.add_argument("checkpoint")
    p.add_argument("covariates_csv")
    p.add_argument("--grid-min", type=float, default=0.0)
    p.add_argument("--grid-max", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("sweep-nodes", help="error-vs-node-count study")
    p.add_argument("family")
    p.add_argument("--k-list", default="1,2,3,5,7,10")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep_nodes)

    p = sub.add_parser("hpo", help="random hyperparameter search")
    p.add_argument("space", help="search space JSON (may be {})")
    p.add_argument("train_csv")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_hpo)

    p = sub.add_parser("rule", help="dump a quadrature rule as JSON")
    p.add_argument("--k-nodes", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_rule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except QuadSurvError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # noqa: BLE001 - last-resort mapping to exit code 5
        import traceback
        traceback.print_exc()
        print(f"internal error: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
