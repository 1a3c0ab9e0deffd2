"""Per-layer spans for the traced run, the K sweep, and the per-layer metric list.

Each span wraps a public function of one layer (autodiff, model, training,
metrics, simulation, data, cli) where its caller looks it up.  Quadrature
has no hot call of its own: ``build_rule`` is cached, so its cost is the K
multiplier that ``kstep_series`` measures.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from quadsurv import autodiff, cli, data, metrics, simulation, training
from quadsurv.data import Standardizer
from quadsurv.model import HazardModel
from quadsurv.quadrature import build_rule

from pipeline import HEADS, PREDICT_HEADS

KSTEP_HEADS = ("lora", "concat")  # the paper's cost claim contrasts these two
KSTEP_NODES = (1, 5, 15, 30, 64)
KSTEP_BATCH = 128
KSTEP_REPEATS = 5
# per-step spans whose single-call percentiles are reported on every workload
STEP_SPANS = ("training.nll_loss", "autodiff.backward", "training.adamw_step")


def _graph_nodes(tracer, args, kwargs, loss):
    if (tracer.ctx, "autodiff.graph_nodes") not in tracer.levels:
        tracer.level("autodiff.graph_nodes", len(autodiff.toposort(loss)))


def _clipped(tracer, args, kwargs, clipped):
    tracer.count("training.clipped_steps", int(clipped))


def _backbone_rows(tracer, args, kwargs, result):
    model, x, grid, rule = args[:4]
    n = np.asarray(x).shape[0]
    if model.config.conditioning == "concat":
        n *= len(grid) * (rule.order + 1)
    tracer.count("model.backbone_rows", n)


def _pairs(tracer, args, kwargs, result):
    tracer.count("metrics.c_index_td.pairs", result.n_comparable_pairs)


def _cells(tracer, args, kwargs, result):
    tracer.count("metrics.at_times.cells", result.size)


def _rows_written(tracer, args, kwargs, result):
    path, _, rows = args
    tracer.count("cli.write_rows.rows", len(rows))
    tracer.count("cli.write_rows.bytes", os.path.getsize(path))


def install_spans(tracer) -> None:
    """Wrap every traced function; ``tracer.unpatch_all()`` undoes it."""
    spans = [
        (simulation, "generate", "simulation.generate", {}),
        (data, "save_csv", "data.save_csv", {}),
        (cli, "load_csv", "data.load_csv", {}),
        (cli, "_load_covariates", "cli.load_covariates", {}),
        (cli, "load_checkpoint", "cli.load_checkpoint", {}),
        (cli, "_write_manifest", "cli.write_manifest", {}),
        (cli, "_write_rows", "cli.write_rows", {"after": _rows_written}),
        (cli, "train", "training.train", {}),
        (training, "nll_loss", "training.nll_loss", {"after": _graph_nodes}),
        (autodiff, "backward", "autodiff.backward", {}),
        (training, "clip_gradients", "training.clip_gradients",
         {"after": _clipped}),
        (training, "adamw_step", "training.adamw_step", {}),
        (training, "_validation_metrics", "training.validation", {}),
        (training, "nll_terms", "training.nll_terms", {}),
        (HazardModel, "curves", "model.curves", {"after": _backbone_rows}),
        (metrics, "c_index_td", "metrics.c_index_td",
         {"after": _pairs, "peak_mb": "metrics.c_index_td.peak_mb"}),
        (metrics.SurvivalCurves, "at_own_times", "metrics.at_own_times",
         {"peak_mb": "metrics.at_own_times.peak_mb"}),
        (metrics, "integrated_brier_score", "metrics.integrated_brier_score", {}),
        (metrics, "integrated_binomial_ll", "metrics.integrated_binomial_ll", {}),
        (metrics, "d_calibration", "metrics.d_calibration", {}),
        (metrics, "select_horizons", "metrics.select_horizons", {}),
    ]
    for owner, attr, name, opts in spans:
        tracer.patch(owner, attr, tracer.span(name, owner.__dict__[attr], **opts))
    at_times = metrics.SurvivalCurves.__dict__["at_times"]
    tracer.patch(metrics.SurvivalCurves, "at_times", tracer.counter(at_times, _cells))


def kstep_series(train_data) -> dict:
    """Milliseconds for one recorded loss plus backward on a fixed batch.

    The batch is the first 128 training subjects; each entry is the median
    of ``KSTEP_REPEATS`` steps after one warm-up step, at default settings
    except for the head and K.
    """
    scaler = Standardizer().fit(train_data.x)
    x = scaler.transform(train_data.x[:KSTEP_BATCH])
    times = train_data.time[:KSTEP_BATCH]
    events = train_data.event[:KSTEP_BATCH]
    time_scale = float(np.quantile(train_data.time, 0.95))
    out = {}
    for head in KSTEP_HEADS:
        for k in KSTEP_NODES:
            cfg = training.TrainingConfig(conditioning=head, k_nodes=k)
            model = HazardModel(cfg.model_config(train_data.n_features, time_scale),
                                np.random.default_rng(0))
            rule = build_rule(k)
            steps = []
            for _ in range(KSTEP_REPEATS + 1):
                autodiff.zero_grad(model.params.values())
                t0 = time.perf_counter()
                loss = training.nll_loss(model, rule, x, times, events, training=True,
                                         rng=np.random.default_rng(0))
                autodiff.backward(loss)
                steps.append(time.perf_counter() - t0)
            out[f"kstep_ms.{head}.k{k}"] = 1000.0 * statistics.median(steps[1:])
    return out


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the traced run reports.

    Suffixes name the CLI call a span ran under: the head for the three
    ``train`` calls, ``evaluate``, ``predict_<head>``, or ``setup``.
    """
    rows = []
    for h in HEADS:
        for span in STEP_SPANS:
            rows += [(f"{span}.ms.{h}", "ms"), (f"{span}.p50_ms.{h}", "ms"),
                     (f"{span}.p90_ms.{h}", "ms")]
        rows += [
            (f"training.nll_loss.calls.{h}", "count"),
            (f"autodiff.backward.calls.{h}", "count"),
            (f"autodiff.graph_nodes.{h}", "count"),
            (f"training.clip_gradients.ms.{h}", "ms"),
            (f"training.clipped_steps.{h}", "count"),
            (f"training.validation.ms.{h}", "ms"),
            (f"training.validation.calls.{h}", "count"),
            (f"training.nll_terms.ms.{h}", "ms"),
            (f"model.curves.ms.{h}", "ms"),
            (f"model.backbone_rows.{h}", "count"),
            (f"metrics.c_index_td.ms.{h}", "ms"),
            (f"metrics.integrated_brier_score.ms.{h}", "ms"),
            (f"training.train.ms.{h}", "ms"),
            (f"other.ms.{h}", "ms"),
        ]
    rows.append(("data.load_csv.ms.lora", "ms"))
    ev = "evaluate"
    rows += [
        (f"model.curves.ms.{ev}", "ms"),
        (f"model.curves.calls.{ev}", "count"),
        (f"model.backbone_rows.{ev}", "count"),
        (f"metrics.c_index_td.ms.{ev}", "ms"),
        (f"metrics.c_index_td.calls.{ev}", "count"),
        (f"metrics.c_index_td.pairs.{ev}", "count"),
        (f"metrics.c_index_td.peak_mb.{ev}", "MB"),
        (f"metrics.at_own_times.ms.{ev}", "ms"),
        (f"metrics.at_own_times.peak_mb.{ev}", "MB"),
        (f"metrics.at_times.cells.{ev}", "count"),
        (f"metrics.integrated_brier_score.ms.{ev}", "ms"),
        (f"metrics.integrated_binomial_ll.ms.{ev}", "ms"),
        (f"metrics.d_calibration.ms.{ev}", "ms"),
        (f"metrics.select_horizons.ms.{ev}", "ms"),
        (f"data.load_csv.ms.{ev}", "ms"),
        (f"cli.load_checkpoint.ms.{ev}", "ms"),
        (f"cli.write_manifest.ms.{ev}", "ms"),
        (f"other.ms.{ev}", "ms"),
    ]
    for h in PREDICT_HEADS:
        p = f"predict_{h}"
        rows += [
            (f"model.curves.ms.{p}", "ms"),
            (f"model.backbone_rows.{p}", "count"),
            (f"cli.write_rows.ms.{p}", "ms"),
            (f"cli.write_rows.rows.{p}", "count"),
            (f"cli.write_rows.bytes.{p}", "bytes"),
            (f"cli.load_covariates.ms.{p}", "ms"),
            (f"cli.load_checkpoint.ms.{p}", "ms"),
            (f"cli.write_manifest.ms.{p}", "ms"),
            (f"other.ms.{p}", "ms"),
            (f"predict.roundtrip_max_abs_s.{h}", "1"),
            (f"predict.nonmonotone_cells.{h}", "count"),
        ]
    rows += [("simulation.generate.ms.setup", "ms"),
             ("data.save_csv.ms.setup", "ms"),
             ("training.train.ms.setup", "ms")]
    rows += [(f"kstep_ms.{h}.k{k}", "ms") for h in KSTEP_HEADS for k in KSTEP_NODES]
    return rows
