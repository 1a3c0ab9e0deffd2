"""Spans and counters for the traced benchmark run.

The tracer wraps public functions of the package at the place where their
caller looks them up (a module attribute or a class attribute), so the
program itself is unchanged.  Spans nest through an explicit stack: a
span's self time is its duration minus the time of the spans it encloses.
Every traced CLI call runs inside ``Tracer.op(ctx)``; the part of its wall
time that no span covers is reported as ``other``.

Work the tracer does on its own behalf (counting graph nodes, stopping
``tracemalloc``) is timed and removed from every self time and from
``other``.  Spans and counters stay in memory until ``table`` summarises
them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc
from collections import defaultdict

PERCENTILE_MIN_CALLS = 100


class Tracer:
    def __init__(self):
        self.ctx = None
        self._stack = []  # one [child_seconds] cell per open span or op
        self.self_s = defaultdict(list)  # (ctx, span) -> self seconds per call
        self.counts = defaultdict(float)  # (ctx, counter) -> running sum
        self.levels = {}  # (ctx, counter) -> last observed value
        self.peaks = defaultdict(float)  # (ctx, counter) -> max observed value
        self.invocations = defaultdict(int)  # ctx -> traced op calls
        self.overhead_s = 0.0
        self._patches = []

    # --- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, ctx):
        """Trace one CLI call (or one set-up) under the label ``ctx``."""
        cell = [0.0]
        self.ctx = ctx
        self._stack.append(cell)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self._stack.pop()
            self.ctx = None
            self.self_s[(ctx, "other")].append(wall - cell[0])
            self.invocations[ctx] += 1

    def count(self, name, value):
        self.counts[(self.ctx, name)] += value

    def level(self, name, value):
        self.levels[(self.ctx, name)] = value

    def peak(self, name, value):
        key = (self.ctx, name)
        self.peaks[key] = max(self.peaks[key], value)

    def _charge_overhead(self, seconds):
        self.overhead_s += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def span(self, name, fn, after=None, peak_mb=None):
        """Wrap ``fn`` as span ``name``.

        ``after(tracer, args, kwargs, result)`` records counters once the
        call returns; its time is tracer overhead.  With ``peak_mb`` set,
        the call runs under ``tracemalloc`` and its peak allocation is kept
        under that counter name.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.ctx is None:
                return fn(*args, **kwargs)
            cell = [0.0]
            tracer._stack.append(cell)
            mem = peak_mb is not None and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer.self_s[(tracer.ctx, name)].append(dt - cell[0])
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                if mem:
                    t1 = time.perf_counter()
                    tracer.peak(peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                    tracer._charge_overhead(time.perf_counter() - t1)
            if after is not None:
                t1 = time.perf_counter()
                after(tracer, args, kwargs, result)
                tracer._charge_overhead(time.perf_counter() - t1)
            return result

        return wrapper

    def counter(self, fn, after):
        """Wrap ``fn`` to record counters only; its time stays with the caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.ctx is not None:
                t1 = time.perf_counter()
                after(tracer, args, kwargs, result)
                tracer._charge_overhead(time.perf_counter() - t1)
            return result

        return wrapper

    # --- installing wrappers ------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch_all(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summary --------------------------------------------------------------------

    def table(self, always_percentiles=()) -> dict:
        """Every span and counter, per traced call of its context.

        Span keys are ``<span>.ms.<ctx>`` (self time) and
        ``<span>.calls.<ctx>``, divided by the number of traced calls of
        the context so runs of different length compare.  Spans with at
        least ``PERCENTILE_MIN_CALLS`` calls, and those named in
        ``always_percentiles``, also get ``.p50_ms`` and ``.p90_ms`` over
        single calls.  Summed counters are divided the same way; levels and
        peaks are reported as observed.
        """
        out = {}
        for (ctx, name), samples in self.self_s.items():
            runs = self.invocations[ctx]
            out[f"{name}.ms.{ctx}"] = 1000.0 * sum(samples) / runs
            if name == "other":
                continue
            out[f"{name}.calls.{ctx}"] = len(samples) / runs
            if len(samples) >= PERCENTILE_MIN_CALLS or name in always_percentiles:
                p50, p90 = percentiles_ms(samples)
                out[f"{name}.p50_ms.{ctx}"] = p50
                out[f"{name}.p90_ms.{ctx}"] = p90
        for (ctx, name), total in self.counts.items():
            out[f"{name}.{ctx}"] = total / self.invocations[ctx]
        for (ctx, name), value in self.levels.items():
            out[f"{name}.{ctx}"] = value
        for (ctx, name), value in self.peaks.items():
            out[f"{name}.{ctx}"] = value
        return out


def percentiles_ms(samples):
    """Median and 90th percentile of per-call seconds, in milliseconds."""
    if len(samples) == 1:
        return 1000.0 * samples[0], 1000.0 * samples[0]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return 1000.0 * statistics.median(samples), 1000.0 * deciles[8]
