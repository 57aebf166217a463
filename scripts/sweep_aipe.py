"""Wall time of one AIPE removal proposal against the exact removal scan.

    PYTHONPATH=src python3 scripts/sweep_aipe.py [--m 1024 4096 16384] [--d 4 8]

For each (m, d) one Gaussian family of m stored member rows is drawn from
--seed, and one swap query matrix is formed from it as swap_round forms it
(epsilon=0.2, c=0.9, tau=0.5, the expdesign-aipe settings).  Then,
--repeats times each, with BLAS on one thread (see sweeplib):

    build       MinIpBackend("aipe", ...) over the m rows' vec(x x^T)
    query_cold  propose() on a fresh backend: every sampled sketch's factor
                is drawn and cached first (its Bartlett draws when tall), as
                in a solve's first queries
    query_warm  propose() again with the same sampled sketches, now cached
    scan        expdesign's exact removal over the same m rows: the row pass
                (_row_forms) and the B^- selection (_removal_scan), the work
                one proposal replaces

Prints one JSON object: per size, the median seconds of each, the ratio of
the cold query to the scan, and the estimator's sketch pool size and the
sketches each query samples from it (a query's GEMM is samples x m x
(d^2+2)^2 multiply-adds at most).  Each size also reports the tracemalloc
peak, in MB, of one cold and one warm query on a fresh backend, traced apart
from the timed runs: the memory the query allocates, its new factors
included.  The PYTHONPATH decides which source tree is measured.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import tracemalloc

from sweeplib import machine, timed  # before numpy

import numpy as np

from sparsekit import afn, expdesign, linalg
from sparsekit.minip_backend import MinIpBackend

EPSILON, C, TAU = 0.2, 0.9, 0.5


def swap_matrices(X: np.ndarray):
    """(A, A_half, alpha, beta, Q) of swap_round's first iteration on member rows X."""
    m, d = X.shape
    beta = 1.0 / C
    alpha = math.sqrt(d) * beta / EPSILON
    A_half, A = expdesign.swap_matrices(linalg.eigendecompose(X.T @ X), alpha)
    Q = expdesign.swap_query_matrix(A, A_half, m, EPSILON, alpha)
    return A, A_half, alpha, beta, Q


def removal(X, members, A, A_half, alpha, beta):
    """swap_round's exact removal: one pass over the rows, then the B^- selection."""
    return expdesign._removal_scan(members, *expdesign._row_forms(X, A, A_half), alpha, beta)


def query_peaks_mb(X: np.ndarray, Q: np.ndarray, seed: int) -> dict:
    """Traced peak MB of one cold and then one warm propose() on a fresh backend."""
    backend = MinIpBackend("aipe", X, range(len(X)), c=C, tau=TAU, seed=seed)
    peaks = {}
    tracemalloc.start()
    try:
        for key in ("query_cold_peak_mb", "query_warm_peak_mb"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            backend.propose(Q, np.random.default_rng(0))
            peaks[key] = round((tracemalloc.get_traced_memory()[1] - base) / 2**20, 2)
    finally:
        tracemalloc.stop()
    return peaks


def measure(X: np.ndarray, repeats: int, seed: int) -> dict:
    A, A_half, alpha, beta, Q = swap_matrices(X)
    rows = range(len(X))
    build, cold, warm, scan = [], [], [], []
    for r in range(repeats):
        t, backend = timed(lambda: MinIpBackend("aipe", X, rows, c=C, tau=TAU, seed=seed + r))
        build.append(t)
        cold.append(timed(lambda: backend.propose(Q, np.random.default_rng(r)))[0])
        warm.append(timed(lambda: backend.propose(Q, np.random.default_rng(r)))[0])
        members = np.ones(len(X), dtype=bool)
        scan.append(timed(lambda: removal(X, members, A, A_half, alpha, beta))[0])
    out = {
        "build_s": statistics.median(build),
        "query_cold_s": statistics.median(cold),
        "query_warm_s": statistics.median(warm),
        "scan_s": statistics.median(scan),
    }
    out["query_cold_over_scan"] = out["query_cold_s"] / out["scan_s"]
    # the same at every repeat: they read m and the (c, tau) settings only
    sizes = {"pool": backend._index.pool, "samples": backend._index.samples}
    return {**{k: round(v, 6) for k, v in out.items()}, **sizes, **query_peaks_mb(X, Q, seed)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, nargs="+", default=[1024, 4096, 16384])
    parser.add_argument("--d", type=int, nargs="+", default=[4, 8])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    rows = []
    for d in args.d:
        for m in args.m:
            X = rng.standard_normal((m, d)) / math.sqrt(m)
            rows.append({"m": m, "d": d, **measure(X, args.repeats, args.seed)})
    report = {
        "settings": {"epsilon": EPSILON, "c": C, "tau": TAU, "scale": afn.SCALE},
        "repeats": args.repeats,
        "seed": args.seed,
        **machine(),
        "sizes": rows,
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
