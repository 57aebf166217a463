"""Wall time of sparsify_fast against bss_reference over a grid of sizes.

    PYTHONPATH=src python3 scripts/sweep_sparsify.py [--m 2048 8192 32768] [--d 16 32]

For each (m, d) one whitened Gaussian family is drawn from --seed, and each
solver runs --repeats times on it with epsilon=0.25 (T = 16 d iterations),
BLAS pinned to one thread.  Prints one JSON object: per size, the median
seconds of each path, the reference/fast ratio, the rows each path read
per iteration (v_i^T Q v_i evaluated by a row scan), the tree the cost
model chose, and whether both selections kept the barrier invariant.  The
PYTHONPATH decides which source tree is measured.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from sparsekit import linalg, sparsifier  # noqa: E402

EPSILON = 0.25


def time_solver(solver, family, repeats: int):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = solver(family, EPSILON)
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, nargs="+", default=[2048, 8192, 32768])
    parser.add_argument("--d", type=int, nargs="+", default=[16, 32])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    rows = []
    for d in args.d:
        for m in args.m:
            family = linalg.whiten(linalg.VectorFamily(rng.standard_normal((m, d))))
            fast_s, (_, _, fast_trace) = time_solver(sparsifier.sparsify_fast, family, args.repeats)
            ref_s, (_, _, ref_trace) = time_solver(sparsifier.bss_reference, family, args.repeats)
            iterations = len(ref_trace.gap_sums) - 1
            rows.append(
                {
                    "m": m,
                    "d": d,
                    "iterations": iterations,
                    "tree_kind": fast_trace.tree_kind,
                    "fast_s": round(fast_s, 4),
                    "reference_s": round(ref_s, 4),
                    "reference_over_fast": round(ref_s / fast_s, 2),
                    "fast_rows_per_iteration": round(fast_trace.rows_read / iterations, 1),
                    "reference_rows_per_iteration": round(ref_trace.rows_read / iterations, 1),
                    "barrier_contained": fast_trace.barrier_contained
                    and ref_trace.barrier_contained,
                }
            )
    report = {
        "epsilon": EPSILON,
        "repeats": args.repeats,
        "seed": args.seed,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, BLAS 1 thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": rows,
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
