"""Every exported name, every name the README imports and every function
the traced benchmark wraps must resolve."""

import ast
import importlib
import math
import re
from pathlib import Path

import numpy as np

import quadsurv
from quadsurv import metrics
from quadsurv.model import HazardModel
from quadsurv.quadrature import build_rule
from quadsurv.training import TrainingConfig, nll_loss

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve():
    missing = [name for name in quadsurv.__all__ if not hasattr(quadsurv, name)]
    assert missing == []


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = [(node.module, alias.name)
               for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.startswith("quadsurv")
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_benchmark_spans_install(monkeypatch):
    # the traced benchmark run patches functions by name; a renamed or deleted
    # one fails here instead of in the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    try:
        layers.install_spans(tracer)
    finally:
        tracer.unpatch_all()


def test_benchmark_library_calls(monkeypatch, tmp_path):
    # the benchmark's set-up, its oracle C_td, its K sweep of training steps
    # and its graph-size hook call the library directly, at small n here; an
    # API change that would break them fails here instead
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    pipeline = importlib.import_module("pipeline")
    spec = pipeline.GeneratorSpec(pipeline.FAMILY, n_train=200, n_test=60)
    sim = pipeline.simulation.generate(spec, 0)
    inputs = pipeline.Inputs(work=tmp_path, sim=sim, grid=None, fits={}, ops=[])
    horizon = metrics.select_horizons(sim.train.time, sim.train.event,
                                      sim.test.time).full
    assert 0.5 < pipeline.oracle_ctd(inputs, 50, horizon) <= 1.0

    layers = importlib.import_module("layers")
    monkeypatch.setattr(layers, "KSTEP_NODES", (1, 3))
    monkeypatch.setattr(layers, "KSTEP_REPEATS", 1)
    series = layers.kstep_series(sim.train)
    assert sorted(series) == sorted(f"kstep_ms.{h}.k{k}"
                                    for h in layers.KSTEP_HEADS for k in (1, 3))
    assert all(math.isfinite(v) and v > 0 for v in series.values())

    tracer = importlib.import_module("tracer").Tracer()
    model = HazardModel(TrainingConfig().model_config(1), np.random.default_rng(0))
    loss = nll_loss(model, build_rule(3), sim.train.x[:8], sim.train.time[:8],
                    sim.train.event[:8])
    layers._graph_nodes(tracer, (), {}, loss)
    assert tracer.levels[(None, "autodiff.graph_nodes")] > 1


def test_benchmark_backbone_rows_formula(monkeypatch):
    # the benchmark's ``model.backbone_rows`` reads ``curves``' positional
    # (model, x, grid, rule) arguments: n G (K+1) rows for concat, n for the
    # heads that run the backbone once per subject
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    x, grid, rule = np.zeros((6, 1)), np.linspace(0.1, 2.0, 5), build_rule(3)
    layers.install_spans(tracer)
    try:
        for head in ("concat", "film", "lora"):
            model = HazardModel(TrainingConfig(conditioning=head).model_config(1),
                                np.random.default_rng(0))
            with tracer.op(head):
                model.curves(x, grid, rule)
    finally:
        tracer.unpatch_all()
    assert tracer.counts[("concat", "model.backbone_rows")] == 6 * 5 * 4
    assert tracer.counts[("film", "model.backbone_rows")] == 6
    assert tracer.counts[("lora", "model.backbone_rows")] == 6
