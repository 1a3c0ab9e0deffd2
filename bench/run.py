"""Benchmark of the quadsurv command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {train,evaluate,predict} --seed N \
        --seconds S --trace {0,1}

Each workload generates its inputs from the seed, sets up, then calls
``quadsurv train`` (each head), ``evaluate`` and ``predict`` (lora and
concat) in this process, one after the other, for about S seconds, and
checks every output.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones: medians of times scaled to a reference
speed (see ``measure.SpeedReference``) and the peak RSS.  With
``--trace 1`` they are the per-layer ones, raw.  The line before the result
names the full record written under ``.bench_out/``: environment, output
fingerprints, every raw sample and every span.

Timings are only comparable on an otherwise idle machine: do not run the
benchmark alongside the test suite or another benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # one thread per process keeps runs on a shared 2-core box steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train, evaluate or predict")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "quadsurv" / "__init__.py").is_file():
        print(f"bench: no quadsurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np  # only now: importing numpy reads the thread count once

    # numpy asks the kernel for transparent huge pages for large arrays, and
    # whether it gets them depends on memory fragmentation: on a 2-core VM
    # that moved a concat epoch by up to 40% between runs.  Regular pages
    # make the cost of touching fresh memory the same in every run.
    np._core.multiarray._set_madvise_hugepage(False)
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    if args.workload not in measure.pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(measure.pipeline.WORKLOADS)}")
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
