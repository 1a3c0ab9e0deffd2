"""One benchmark run: set-up, the timed loop over CLI calls, checks, result.

An untraced run reports the end-to-end metrics.  A traced run reports the
per-layer metrics: it first times the same calls untraced, then with
spans installed, so every result carries the tracing overhead as well.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import layers
import pipeline
from tracer import Tracer

SETUPS = 3  # set-ups per untraced run; setup_s is their median
MIN_ROUND_S = 1.0  # in the first round, a short operation repeats until it used this
REFERENCE_S = 0.013  # nominal time of one SpeedReference.time() call
SCALE_POWER = 1.5

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("epoch_ms.lora", "ms"),
    ("epoch_ms.film", "ms"),
    ("epoch_ms.concat", "ms"),
    ("evaluate_s", "s"),
    ("predict_s.lora", "s"),
    ("predict_s.concat", "s"),
]


class SpeedReference:
    """A fixed computation, timed before every set-up and CLI call.

    The host switches between a fast and a slow state every few seconds.
    The reference takes about 1.3 times as long in the slow state, the
    program's calls 1.3 (streaming large arrays) to 2 times (interpreter
    bound).  Every set-up and call is therefore scaled by
    ``(REFERENCE_S / r) ** SCALE_POWER``, with r the mean of the reference
    times just before and just after it; the raw times stay in the record.
    Over 30 ten-seed runs, powers from 1 to 2.5 were tried and 1.5 gave the
    smallest largest spread.  The reference is a Python loop over small
    array operations, then one pass over an array larger than the caches,
    about 3:1 in time; its arrays are allocated once, so the program's heap
    does not change it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(256, 32))
        self._w = rng.normal(size=(32, 32))
        self._h = np.empty((256, 32))
        self._big = rng.normal(size=2_000_000)
        self._out = np.empty_like(self._big)
        self.samples = []

    def time(self) -> None:
        t0 = time.perf_counter()
        for _ in range(225):
            np.matmul(self._a, self._w, out=self._h)
            np.tanh(self._h, out=self._h)
        np.multiply(self._big, 1.0001, out=self._out)
        self.samples.append(time.perf_counter() - t0)

    def scale(self, k: int) -> float:
        """Factor for work done between reference samples k and k + 1."""
        r = (self.samples[k] + self.samples[k + 1]) / 2.0
        return (REFERENCE_S / r) ** SCALE_POWER


class Session:
    """Runs the workload's CLI calls and keeps their timings and outcomes."""

    def __init__(self, inputs: pipeline.Inputs, workload: pipeline.Workload,
                 reference: SpeedReference):
        self.inputs = inputs
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.walls = defaultdict(lambda: defaultdict(list))  # phase -> op -> s
        self.calls = []  # (op, wall s, epochs or 1, reference index) in order
        self.passed = defaultdict(int)  # op -> calls that exited 0 with the usual output
        self.digests = {}

    def run_op(self, op: pipeline.Op, phase: str, tracer=None) -> None:
        gc.collect()  # start every call from the same heap state
        self.reference.time()
        with tracer.op(op.name) if tracer else nullcontext():
            t0 = time.perf_counter()
            rc, text = pipeline.call_cli(op.argv)
            wall = time.perf_counter() - t0
        self.attempted += 1
        self.walls[phase][op.name].append(wall)
        units = 1
        if rc != 0 or not op.output.is_file():
            self.failed += 1
            self.problems.append(f"{op.name} exited {rc}: {text.strip()[-500:]}")
        else:
            digest = pipeline.sha256(op.output)
            if self.digests.setdefault(op.name, digest) != digest:
                self.failed += 1
                self.problems.append(f"{op.name}: output differs from its first call")
            else:
                self.passed[op.name] += 1
            if op.kind == "train":
                units = max(len(op.output.read_text().splitlines()), 1)
        self.calls.append((op.name, wall, units, len(self.reference.samples) - 1))

    def loop(self, phase: str, seconds: float, tracer=None) -> None:
        """Run one round over the operations, each for at least
        ``MIN_ROUND_S``, then keep calling the one whose median is least
        certain, among those whose typical call still fits in ``seconds``.
        Short calls are the noisy ones on a shared host, and they are cheap
        to repeat."""
        start = time.perf_counter()
        walls = self.walls[phase]
        for op in self.inputs.ops:
            used = 0.0
            while used < MIN_ROUND_S:
                self.run_op(op, phase, tracer)
                used += walls[op.name][-1]
        while True:
            left = seconds - (time.perf_counter() - start)
            fits = [op for op in self.inputs.ops
                    if statistics.median(walls[op.name]) <= left]
            if not fits:
                break
            self.run_op(max(fits, key=lambda o: _uncertainty(walls[o.name])),
                        phase, tracer)
        self.reference.time()  # closes the last call's interval

    def scaled_samples(self) -> dict:
        """Seconds per epoch (train) or per call, scaled to reference speed."""
        out = defaultdict(list)
        for name, wall, units, k in self.calls:
            out[name].append(wall / units * self.reference.scale(k))
        return dict(out)

    def check(self):
        """Check the last outputs of every operation; returns fingerprints
        and the reported numbers of each predict head.  Every call of an
        operation wrote the same output, so a failed check fails them all."""
        fingerprints, reported = {}, {}
        w = self.workload
        for op in self.inputs.ops:
            if not op.output.is_file():
                continue  # every call failed; already counted
            if op.kind == "train":
                problems, fp = pipeline.check_train(op)
            elif op.kind == "evaluate":
                problems, fp = pipeline.check_evaluate(op, self.inputs, w.n_eval)
            else:
                head = op.name.removeprefix("predict_")
                problems, fp, reported[head] = pipeline.check_predict(
                    op, self.inputs, head, w.n_pred)
            if problems:
                self.problems += problems
                self.failed += self.passed[op.name]
            fingerprints[op.name] = fp
        return fingerprints, reported


def _uncertainty(samples) -> float:
    """Relative spread of the samples over the square root of their number,
    floored so that a few equal samples do not end the sampling of a call.
    A single sample counts as spread 0.2, typical of one short call here."""
    if len(samples) == 1:
        return 0.2
    spread = (max(samples) - min(samples)) / statistics.median(samples)
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / statistics.median(samples)
    return max(spread, 0.05) / len(samples) ** 0.5


def _untraced(workload, seed, seconds, work):
    reference = SpeedReference()
    setups, setup_fps = [], []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        gc.collect()
        reference.time()
        t0 = time.perf_counter()
        inputs = pipeline.set_up(workload, seed, work)
        setups.append((time.perf_counter() - t0, len(reference.samples) - 1))
        setup_fps.append(pipeline.setup_fingerprint(inputs))
    session = Session(inputs, workload, reference)
    if any(fp != setup_fps[0] for fp in setup_fps):
        session.problems.append("set-up outputs differ between repeats")
    session.loop("untraced", seconds)
    fingerprints, reported = session.check()
    fingerprints["setup"] = setup_fps[0]

    samples = session.scaled_samples()
    samples["setup"] = [s * reference.scale(k) for s, k in setups]
    med = {name: statistics.median(v) for name, v in samples.items()}
    values = {
        "setup_s": med["setup"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epoch_ms.lora": 1000.0 * med["lora"],
        "epoch_ms.film": 1000.0 * med["film"],
        "epoch_ms.concat": 1000.0 * med["concat"],
        "evaluate_s": med["evaluate"],
        "predict_s.lora": med["predict_lora"],
        "predict_s.concat": med["predict_concat"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    details = {"scaled_samples": samples, "calls": session.calls,
               "setups": setups, "reference_s": reference.samples,
               "predict_reported": reported}
    return session, metrics, fingerprints, details


def _traced(workload, seed, seconds, work):
    tracer = Tracer()
    layers.install_spans(tracer)
    try:
        with tracer.op("setup"):
            inputs = pipeline.set_up(workload, seed, work)
    finally:
        tracer.unpatch_all()
    session = Session(inputs, workload, SpeedReference())
    start = time.perf_counter()
    session.loop("untraced", seconds / 3.0)
    layers.install_spans(tracer)
    try:
        session.loop("traced", seconds - (time.perf_counter() - start), tracer)
    finally:
        tracer.unpatch_all()
    kstep = layers.kstep_series(inputs.sim.train)
    fingerprints, reported = session.check()

    table = tracer.table(always_percentiles=layers.STEP_SPANS)
    table.update(kstep)
    table.update({f"predict.{name}.{head}": value
                  for head, numbers in reported.items()
                  for name, value in numbers.items()})
    metrics = {}
    for name, unit in layers.per_layer_metrics():
        if name not in table:
            session.problems.append(f"trace has no value for {name}")
        metrics[name] = {"value": table.get(name, 0.0), "unit": unit}
    overhead = {}
    for op in inputs.ops:
        plain = statistics.median(session.walls["untraced"][op.name])
        traced = statistics.median(session.walls["traced"][op.name])
        overhead[op.name] = {"untraced_s": plain, "traced_s": traced,
                             "difference_s": traced - plain}
    details = {"tracing_overhead": overhead, "tracer_own_s": tracer.overhead_s,
               "traced_calls": dict(tracer.invocations),
               "reference_s": session.reference.samples, "per_layer_all": table}
    return session, metrics, fingerprints, details


def environment(root: Path) -> dict:
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_sha": git_sha,
        "source_sha256": _tree_sha256(root / "src" / "quadsurv"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy_hugepages": np._core.multiarray._get_madvise_hugepage(),
        "machine": platform.machine(),
    }


def _tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(f.relative_to(path).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run(workload_name: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    workload = pipeline.WORKLOADS[workload_name]
    work = root / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        session, metrics, fingerprints, details = (
            _traced if trace else _untraced)(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": session.failed == 0 and not session.problems,
              "attempted": session.attempted,
              "failed": session.failed,
              "metrics": metrics}
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(root),
              "problems": session.problems, "fingerprints": fingerprints,
              **details, "result": result}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"record": str(out.relative_to(root)),
                      "problems": session.problems,
                      "environment": record["environment"]}))
    print(json.dumps(result))
    return 0
