"""Command-line pipelines: simulate, train, evaluate, predict, sweep, search.

Every command is a pure function of its inputs and the seed; outputs are
written with deterministic formatting and each run records a manifest with
content hashes of everything read and written.  Exit codes: 0 success,
2 usage, 3 data, 4 numeric, 5 internal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time as _time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import metrics as mx
from .data import Standardizer, load_covariates, load_csv, save_csv
from .errors import IngestionError, QuadSurvError, UsageError
from .model import FittedModel, HazardModel
from .quadrature import build_rule
from .simulation import (FAMILIES, GeneratorSpec, evaluation_grid, generate,
                         l1_error, marginalized_curves)
from .training import (SearchSpace, TrainingConfig, random_search, train,
                       write_log_ndjson)
from . import autodiff as ad

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


def _write_manifest(out_dir: Path, command: str, seed, config_payload,
                    inputs, outputs, t_start) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "argv": sys.argv[1:],
        "seed": seed,
        "config_hash": _config_hash(config_payload),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
        "wall_clock_s": _time.perf_counter() - t_start,
        "library_version": __version__,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_checkpoint(path: Path, result, columns) -> None:
    arch = result.model.config.as_dict()
    arch["k_nodes"] = result.config.k_nodes
    payload = {
        "schema_version": SCHEMA_VERSION,
        "architecture": arch,
        "standardization": {**result.scaler.as_dict(), "columns": list(columns)},
        "params": ad.params_to_payload(result.model.state_arrays()),
    }
    _write_json(path, payload)


def load_checkpoint(path):
    """Rebuild a FittedModel (model, rule, scaler) from a checkpoint file.

    A file that is not JSON, lacks a section or an entry, holds a value the
    model rejects, or standardizes a number of columns other than the
    model's input width is a data error: the file, not a flag, is at fault.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        arch = dict(payload["architecture"])
        rule = build_rule(int(arch.pop("k_nodes")))
        arrays = ad.payload_to_arrays(payload["params"])
        model = HazardModel.from_architecture(arch, arrays)
        scaler = Standardizer.from_dict(payload["standardization"])
        columns = tuple(payload["standardization"]["columns"])
        widths = (len(columns), len(scaler.mean), len(scaler.scale))
        if widths != (model.config.input_dim,) * 3:
            raise IngestionError(
                f"{path}: standardization has {widths[0]} columns, {widths[1]} means "
                f"and {widths[2]} scales; the model's input width is "
                f"{model.config.input_dim}")
    except KeyError as err:
        raise IngestionError(f"{path}: checkpoint has no entry {err}") from None
    except (OSError, TypeError, ValueError, UsageError) as err:
        raise IngestionError(f"{path}: not a valid checkpoint: {err}") from None
    return FittedModel(model=model, rule=rule, scaler=scaler), columns


def _read_json_object(path, parse):
    """The JSON object in ``path`` and ``parse`` of it.  A file that is not a
    readable JSON object is a data error, a value ``parse`` rejects a usage
    error; both name the file."""
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
    except (TypeError, ValueError, UsageError) as err:
        raise UsageError(f"{path}: {err}") from None


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    rows = []
    groups = [("x=0", np.zeros(1)), ("x=1", np.ones(1))] if spec.is_scenario else []
    for name, xs in groups:
        lam, ch, s = sim.truth.curves_matrix(xs, grid)
        rows.extend((t, l, c, sv, name) for t, l, c, sv
                    in zip(grid, lam[0], ch[0], s[0]))
    mlam, mch, ms = marginalized_curves(sim.truth, sim.train.x, grid)
    rows.extend((t, l, c, sv, "marginal") for t, l, c, sv in zip(grid, mlam, mch, ms))
    _write_rows(out / "truth.csv", ["t", "lambda", "cumhaz", "survival", "group"], rows)

    config_payload = {"family": args.family, "seed": args.seed,
                      "n_train": args.n_train, "n_test": args.n_test,
                      "censoring": args.censoring}
    _write_manifest(out, "simulate", args.seed, config_payload, [],
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
    _write_manifest(out, "train", cfg.seed, cfg.as_dict(),
                    [args.config, args.train_csv],
                    [out / "checkpoint.json", out / "log.ndjson"], t0)
    status = ("completed" if result.abort_reason is None
              else f"aborted ({result.abort_reason})")
    print(f"training {status}; best epoch {result.best_epoch} "
          f"(val C_td {result.best_val_ctd}); wall clock {result.wall_clock:.1f}s")
    return 0


def cmd_evaluate(args) -> int:
    t0 = _time.perf_counter()
    fitted, columns = load_checkpoint(args.checkpoint)
    test = load_csv(args.test_csv, columns)
    train_data = load_csv(args.train_csv, columns)

    def curves_fn(grid):
        return fitted.survival_matrix(test.x, grid)

    report = mx.evaluation_report(curves_fn, train_data.time, train_data.event,
                                  test.time, test.event)
    report["schema_version"] = SCHEMA_VERSION
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, report)
    _write_manifest(out.parent, "evaluate", None,
                    {"checkpoint": str(args.checkpoint)},
                    [args.checkpoint, args.test_csv, args.train_csv], [out], t0)
    print(json.dumps({h: report["horizons"][h]["ctd"] for h in report["horizons"]}))
    return 0


def _load_covariates(path, columns):
    return load_covariates(path, columns)


def cmd_predict(args) -> int:
    t0 = _time.perf_counter()
    fitted, columns = load_checkpoint(args.checkpoint)
    x = _load_covariates(args.covariates_csv, columns)
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    lam, ch, s = fitted.curves_matrix(x, grid)
    rows = []
    for i in range(len(x)):
        rows.extend((i, t, lam[i, j], ch[i, j], s[i, j])
                    for j, t in enumerate(grid))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, ["subject_id", "t", "hazard", "cumhaz", "survival"], rows)
    _write_manifest(out.parent, "predict", None,
                    {"grid_min": args.grid_min, "grid_max": args.grid_max,
                     "grid_points": args.grid_points},
                    [args.checkpoint, args.covariates_csv], [out], t0)
    print(f"wrote {len(rows)} curve rows to {out}")
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

    def run_cell(seed, k):
        sim = generate(GeneratorSpec(family=args.family), seed)
        cfg = TrainingConfig(seed=seed, k_nodes=k, **base)
        try:
            result = train(cfg, sim.train)
            fitted = FittedModel(result.model, result.rule, result.scaler)
            grid = evaluation_grid(sim.train.time)
            err_s, err_ch, err_h = l1_error(fitted, sim.truth, sim.test.x, grid)
            return (args.family, k, seed, err_s, err_ch, err_h,
                    result.wall_clock, "")
        except QuadSurvError as err:
            return (args.family, k, seed, "", "", "", "", str(err))

    rows = [run_cell(seed, k) for seed in seeds for k in k_list]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, ["family", "k", "seed", "iae_survival", "iae_cumhaz",
                      "iae_hazard", "wall_clock_s", "error"], rows)
    _write_manifest(out.parent, "sweep-nodes", seeds,
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
    _write_checkpoint(out / "checkpoint.json", best_res, data.columns)
    rows = [(r.index, len(r.config.hidden), r.config.hidden[0],
             r.config.learning_rate, r.config.weight_decay, r.config.dropout,
             r.config.batch_size, r.config.batchnorm,
             "" if r.val_ctd is None else r.val_ctd,
             "" if r.val_ibs is None else r.val_ibs,
             r.error or "") for r in records]
    _write_rows(out / "trials.csv",
                ["trial", "n_layers", "hidden", "learning_rate", "weight_decay",
                 "dropout", "batch_size", "batchnorm", "val_ctd", "val_ibs",
                 "error"], rows)
    _write_manifest(out, "hpo", args.seed,
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
    p.add_argument("--censoring", type=float, default=0.2)
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
