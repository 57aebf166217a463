"""Wall time of sparsify_fast against bss_reference over a grid of sizes.

    PYTHONPATH=src python3 scripts/sweep_sparsify.py [--m 2048 8192 32768] [--d 16 32]

For each (m, d) one whitened Gaussian family is drawn from --seed and
solved --repeats times with epsilon=0.25 (T = 16 d iterations), BLAS on one
thread (see sweeplib).  Each repeat runs one fast solve and then one reference
solve, so drift on a shared host reaches both paths alike.  Prints one JSON
object: per size, the median seconds of each path, the median of the
per-repeat reference/fast ratios, the rows each path read
per iteration (v_i^T Q v_i evaluated by a row scan), the tree the cost
model chose, and whether both selections kept the barrier invariant.  The
PYTHONPATH decides which source tree is measured.
"""

from __future__ import annotations

import argparse
import json
import statistics

from sweeplib import machine, timed  # before numpy

import numpy as np

from sparsekit import linalg, sparsifier

EPSILON = 0.25


def time_pairs(family, repeats: int):
    """Seconds of each fast solve and of the reference solve run right after
    it, and the last trace of each path."""
    fast_times, ref_times = [], []
    for _ in range(repeats):
        fast_s, (_, _, fast_trace) = timed(lambda: sparsifier.sparsify_fast(family, EPSILON))
        ref_s, (_, _, ref_trace) = timed(lambda: sparsifier.bss_reference(family, EPSILON))
        fast_times.append(fast_s)
        ref_times.append(ref_s)
    return fast_times, ref_times, fast_trace, ref_trace


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
            fast_times, ref_times, fast_trace, ref_trace = time_pairs(family, args.repeats)
            iterations = len(ref_trace.gap_sums) - 1
            rows.append(
                {
                    "m": m,
                    "d": d,
                    "iterations": iterations,
                    "tree_kind": fast_trace.tree_kind,
                    "fast_s": round(statistics.median(fast_times), 4),
                    "reference_s": round(statistics.median(ref_times), 4),
                    "reference_over_fast": round(
                        statistics.median(r / f for r, f in zip(ref_times, fast_times)), 2
                    ),
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
        **machine(),
        "sizes": rows,
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
