"""Every exported name, every name the README imports and every function
the traced benchmark wraps must resolve."""

import ast
import importlib
import re
from pathlib import Path

import quadsurv
from quadsurv import metrics

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
    # the benchmark's set-up and its oracle C_td call the library directly, at
    # small n here; an API change that would break them fails here instead
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    pipeline = importlib.import_module("pipeline")
    spec = pipeline.GeneratorSpec(pipeline.FAMILY, n_train=200, n_test=60)
    sim = pipeline.simulation.generate(spec, 0)
    inputs = pipeline.Inputs(work=tmp_path, sim=sim, grid=None, fits={}, ops=[])
    horizon = metrics.select_horizons(sim.train.time, sim.train.event,
                                      sim.test.time).full
    assert 0.5 < pipeline.oracle_ctd(inputs, 50, horizon) <= 1.0
