"""Workloads of the benchmark: generated inputs, set-up, CLI calls and output checks.

Every workload runs the same six CLI calls, one client, one call after the
other: ``quadsurv train`` for each head, ``quadsurv evaluate`` on a ``lora``
checkpoint, and ``quadsurv predict`` for a ``lora`` and a ``concat``
checkpoint.  A workload sets the sizes, and so decides which layer does
most of the work.  The program only ever sees the CSV and JSON files
written here from ``simulation.generate`` with the run's seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from quadsurv import cli, data, metrics, simulation
from quadsurv.model import FittedModel
from quadsurv.simulation import GeneratorSpec

FAMILY = "weibull"
HEADS = ("lora", "film", "concat")  # one timed `quadsurv train` each
PREDICT_HEADS = ("lora", "concat")  # one timed `quadsurv predict` each
N_TRAIN = 2000  # the `quadsurv simulate` default
GRID_POINTS = 100  # the `quadsurv predict` default
# epoch budget of each timed `quadsurv train`; the shortest budget at which
# every head's best validation C_td stays above 0.5 on seeds 0-15
EPOCHS = 4
SETUP_EPOCHS = {"lora": 4, "concat": 1}  # short fits for evaluate and predict
# allowed |C_td(fitted) - C_td(true model)| on the test set: with a single
# covariate the set-up lora fit ranks subjects almost as the true model
# does; the largest difference seen over 64 seeded runs was 0.021
CTD_MARGIN = 0.05
ROUNDTRIP_SUBJECTS = 100


@dataclass(frozen=True)
class Workload:
    n_eval: int  # test subjects given to `quadsurv evaluate`
    n_pred: int  # subjects given to each `quadsurv predict`
    why: str


WORKLOADS = {
    "train": Workload(
        n_eval=500, n_pred=100,
        why="fits of each head (n=2000, K=15, 4 epochs) dominate: autodiff, the "
            "recorded model forward and training; evaluate and predict run on "
            "500 and 100 subjects"),
    "evaluate": Workload(
        n_eval=8000, n_pred=100,
        why="evaluate on 8000 test subjects dominates: one large metrics call "
            "with n x n matrices, where model does little and autodiff nothing"),
    "predict": Workload(
        n_eval=500, n_pred=1000,
        why="predict for 1000 subjects x 100 grid points per head dominates: "
            "concat is bound by the model, lora by the CSV writer"),
}


@dataclass
class Op:
    name: str  # the head for `train`, else the command and head; also the trace context
    kind: str  # train, evaluate or predict
    argv: list
    output: Path  # the file whose hash fingerprints the call


@dataclass
class Inputs:
    work: Path
    sim: simulation.SimulatedData
    grid: np.ndarray
    fits: dict  # head -> TrainResult of the set-up fit, kept in memory
    ops: list


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def call_cli(argv):
    """Run ``quadsurv <argv>`` in this process; returns (exit code, output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue() + err.getvalue()


@contextlib.contextmanager
def _capturing_fits():
    """Keep the TrainResult of every `quadsurv train` run in the block."""
    results = []
    original = cli.__dict__["train"]

    def train(config, dataset):
        result = original(config, dataset)
        results.append(result)
        return result

    cli.train = train
    try:
        yield results
    finally:
        cli.train = original


def _write_config(path: Path, epochs: int) -> None:
    # defaults of TrainingConfig otherwise: gelu, batch 128, K = 15
    path.write_text(json.dumps({"max_epochs": epochs}))


def set_up(workload: Workload, seed: int, work: Path) -> Inputs:
    """Generate and write the inputs, then fit the checkpoints that
    `evaluate` and `predict` read."""
    work.mkdir(parents=True, exist_ok=True)
    spec = GeneratorSpec(FAMILY, n_train=N_TRAIN,
                         n_test=max(workload.n_eval, workload.n_pred))
    sim = simulation.generate(spec, seed)
    data.save_csv(sim.train, work / "train.csv")
    data.save_csv(sim.test.subset(np.arange(workload.n_eval)), work / "test.csv")
    data.save_csv(sim.test.subset(np.arange(workload.n_pred)), work / "covariates.csv")
    _write_config(work / "train.json", EPOCHS)

    fits = {}
    for head, epochs in SETUP_EPOCHS.items():
        config = work / f"fit_{head}.json"
        _write_config(config, epochs)
        with _capturing_fits() as results:
            rc, text = call_cli(["train", config, work / "train.csv",
                                 "--conditioning", head, "--out", work / f"fit_{head}"])
        if rc != 0:
            raise RuntimeError(f"set-up fit of {head} exited {rc}: {text}")
        fits[head] = results[-1]

    grid_max = float(np.quantile(sim.train.time, 0.99))
    grid = np.linspace(0.0, grid_max, GRID_POINTS)
    ops = [Op(head, "train",
              ["train", work / "train.json", work / "train.csv",
               "--conditioning", head, "--out", work / f"train_{head}"],
              work / f"train_{head}" / "log.ndjson")
           for head in HEADS]
    ops.append(Op("evaluate", "evaluate",
                  ["evaluate", work / "fit_lora" / "checkpoint.json",
                   work / "test.csv", work / "train.csv",
                   "--out", work / "evaluate" / "report.json"],
                  work / "evaluate" / "report.json"))
    ops += [Op(f"predict_{head}", "predict",
               ["predict", work / f"fit_{head}" / "checkpoint.json",
                work / "covariates.csv", "--grid-max", repr(grid_max),
                "--out", work / f"predict_{head}" / "curves.csv"],
               work / f"predict_{head}" / "curves.csv")
            for head in PREDICT_HEADS]
    return Inputs(work=work, sim=sim, grid=grid, fits=fits, ops=ops)


def setup_fingerprint(inputs: Inputs) -> dict:
    w = inputs.work
    files = ["train.csv", "test.csv", "covariates.csv",
             "fit_lora/checkpoint.json", "fit_concat/checkpoint.json"]
    return {f: sha256(w / f) for f in files}


# --- output checks ---------------------------------------------------------------
# Each returns (problems, fingerprint).  They read the files the CLI wrote
# and recompute what they can without the code under measurement.

def check_train(op: Op):
    """Reads the log only: an aborted run logs fewer epochs than its budget."""
    problems = []
    records = [json.loads(line) for line in op.output.read_text().splitlines()]
    if len(records) != EPOCHS:
        problems.append(f"{op.name}: {len(records)} epochs logged, expected {EPOCHS}")
    losses = [r[k] for r in records for k in ("train_loss", "val_loss")]
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"{op.name}: non-finite loss in the log")
    elif records and not records[-1]["train_loss"] < records[0]["train_loss"]:
        problems.append(f"{op.name}: train loss did not decrease")
    ctds = [r["val_ctd"] for r in records if r["val_ctd"] is not None]
    best_ctd = max(ctds, default=None)
    if best_ctd is None or not best_ctd > 0.5:
        problems.append(f"{op.name}: best val C_td {best_ctd} is not above 0.5")
    fingerprint = {
        "log_sha256": sha256(op.output),
        "checkpoint_sha256": sha256(op.output.parent / "checkpoint.json"),
        "final_train_loss": records[-1]["train_loss"] if records else None,
        "final_val_loss": records[-1]["val_loss"] if records else None,
        "best_val_ctd": best_ctd,
    }
    return problems, fingerprint


def comparable_pairs(times, events, horizon) -> int:
    """Pairs (i, j) with i an event before the horizon and o_j > o_i, by sorting."""
    times = np.asarray(times, dtype=np.float64)
    anchors = times[(np.asarray(events) == 1) & (times < horizon)]
    later = len(times) - np.searchsorted(np.sort(times), anchors, side="right")
    return int(later.sum())


def oracle_ctd(inputs: Inputs, n_eval: int, horizon: float) -> float:
    """C_td of the true survival curves on evaluate's own full-horizon grid."""
    test = inputs.sim.test.subset(np.arange(n_eval))
    train = inputs.sim.train
    ghat = metrics.censoring_survival(train.time, train.event)
    grid = np.linspace(test.time[test.time > 0].min(), horizon, 100)
    truth = metrics.SurvivalCurves(grid, inputs.sim.truth.survival_matrix(test.x[:, 0], grid))
    return metrics.c_index_td(truth, test.time, test.event, ghat, horizon).value


def check_evaluate(op: Op, inputs: Inputs, n_eval: int):
    problems = []
    report = json.loads(op.output.read_text())
    taus = report["horizon_taus"]
    if not 0 < taus["q1"] <= taus["q2"] <= taus["full"]:
        problems.append(f"evaluate: horizons out of order: {taus}")
    for name, h in report["horizons"].items():
        if h["ctd"] is not None and not 0.0 <= h["ctd"] <= 1.0:
            problems.append(f"evaluate: {name} C_td {h['ctd']} outside [0, 1]")
        if not 0.0 <= h["ibs"] <= 1.0:
            problems.append(f"evaluate: {name} IBS {h['ibs']} outside [0, 1]")
        if not (math.isfinite(h["ibll"]) and h["ibll"] <= 0.0):
            problems.append(f"evaluate: {name} IBLL {h['ibll']} is not <= 0")
    if not (math.isfinite(report["dcal_stat"]) and report["dcal_stat"] >= 0.0):
        problems.append(f"evaluate: D-calibration statistic {report['dcal_stat']}")
    if not 0.0 <= report["dcal_p"] <= 1.0:
        problems.append(f"evaluate: D-calibration p-value {report['dcal_p']}")
    test = inputs.sim.test.subset(np.arange(n_eval))
    pairs = comparable_pairs(test.time, test.event, taus["full"])
    if report["n_comparable_pairs"] != pairs:
        problems.append(f"evaluate: {report['n_comparable_pairs']} comparable "
                        f"pairs reported, {pairs} counted")
    oracle = oracle_ctd(inputs, n_eval, taus["full"])
    ctd = report["horizons"]["full"]["ctd"]
    if ctd is None or abs(ctd - oracle) > CTD_MARGIN:
        problems.append(f"evaluate: C_td {ctd} is not within {CTD_MARGIN} of "
                        f"the true model's {oracle}")
    fingerprint = {"report_sha256": sha256(op.output), "oracle_ctd": oracle,
                   "report": {k: v for k, v in report.items() if k != "schema_version"}}
    return problems, fingerprint


def _read_curves(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if len(row) == len(header)]
    return header, np.array(rows).reshape(-1, len(header))


def check_predict(op: Op, inputs: Inputs, head: str, n_pred: int):
    """Also returns two reported numbers.  ``roundtrip_max_abs_s`` is the
    largest |S| difference between the set-up fit held in memory and its
    reloaded checkpoint, over the first subjects.  ``nonmonotone_cells``
    counts grid steps where S rises or the cumulative hazard falls; it is a
    failure only when the checkpoint round-trips exactly, since curves of a
    checkpoint that reloads as a different model are already reported
    through the gap."""
    problems = []
    header, table = _read_curves(op.output)
    g = len(inputs.grid)
    fingerprint = {"curves_sha256": sha256(op.output)}
    if header != ["subject_id", "t", "hazard", "cumhaz", "survival"]:
        return [f"{op.name}: header {header}"], fingerprint, {}
    if table.shape[0] != n_pred * g:
        problems.append(f"{op.name}: {table.shape[0]} rows, expected {n_pred * g}")
        return problems, fingerprint, {}
    ids, t, lam, cumhaz, surv = (table[:, i].reshape(n_pred, g) for i in range(5))
    if not (np.array_equal(ids, np.repeat(np.arange(n_pred), g).reshape(n_pred, g))
            and np.array_equal(t, np.broadcast_to(inputs.grid, (n_pred, g)))):
        problems.append(f"{op.name}: subject ids or grid times differ")
    if not (np.all(surv >= 0.0) and np.all(surv <= 1.0)):
        problems.append(f"{op.name}: survival outside [0, 1]")
    if not np.all(np.abs(surv - np.exp(-cumhaz)) <= 1e-12):
        problems.append(f"{op.name}: survival differs from exp(-cumhaz)")
    x = inputs.sim.test.x[:n_pred]
    reloaded, _ = cli.load_checkpoint(op.argv[1])
    expected = reloaded.curves_matrix(x, inputs.grid)
    if not all(np.array_equal(a, b) for a, b in zip((lam, cumhaz, surv), expected)):
        problems.append(f"{op.name}: curves differ from the reloaded checkpoint's")

    fit = inputs.fits[head]
    in_memory = FittedModel(fit.model, fit.rule, fit.scaler)
    xs = x[:ROUNDTRIP_SUBJECTS]
    gap = float(np.max(np.abs(in_memory.survival_matrix(xs, inputs.grid)
                              - reloaded.survival_matrix(xs, inputs.grid))))
    nonmonotone = int(np.sum(np.diff(surv, axis=1) > 0.0)
                      + np.sum(np.diff(cumhaz, axis=1) < 0.0))
    if nonmonotone and gap == 0.0:
        problems.append(f"{op.name}: survival rises or cumulative hazard falls "
                        f"at {nonmonotone} grid steps")
    return problems, fingerprint, {"roundtrip_max_abs_s": gap,
                                   "nonmonotone_cells": nonmonotone}
