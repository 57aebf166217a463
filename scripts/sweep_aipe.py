"""Wall time of one AIPE removal proposal against the exact removal scan.

    PYTHONPATH=src python3 scripts/sweep_aipe.py [--m 1024 4096 16384] [--d 4 8]

For each (m, d) one Gaussian family of m stored member rows is drawn from
--seed, and one swap query matrix is formed from it as swap_round forms it
(epsilon=0.2, c=0.9, tau=0.5, the expdesign-aipe settings).  Then,
--repeats times each, with BLAS pinned to one thread:

    build       MinIpBackend("aipe", ...) over the m rows' vec(x x^T)
    query_cold  propose() on a fresh backend: every sampled sketch is drawn
                and reduced to its cached factor first (Gram and Cholesky
                when tall), as in a solve's first queries
    query_warm  propose() again with the same sampled sketches, now cached
    scan        expdesign's exact removal scan over the same m rows

Prints one JSON object: per size, the median seconds of each, and the ratio
of the cold query to the scan.  The PYTHONPATH decides which source tree is
measured.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from sparsekit import afn, expdesign  # noqa: E402
from sparsekit.minip_backend import MinIpBackend  # noqa: E402

EPSILON, C, TAU = 0.2, 0.9, 0.5


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def swap_matrices(X: np.ndarray):
    """(A, A_half, alpha, beta, Q) of swap_round's first iteration on member rows X."""
    m, d = X.shape
    beta = 1.0 / C
    alpha = math.sqrt(d) * beta / EPSILON
    A_half, A = expdesign.swap_matrices(X.T @ X, alpha)
    Q = expdesign.swap_query_matrix(A, A_half, m, EPSILON, alpha)
    return A, A_half, alpha, beta, Q


def measure(X: np.ndarray, repeats: int, seed: int) -> dict:
    A, A_half, alpha, beta, Q = swap_matrices(X)
    rows = range(len(X))
    build, cold, warm, scan = [], [], [], []
    for r in range(repeats):
        t, backend = timed(lambda: MinIpBackend("aipe", X, rows, c=C, tau=TAU, seed=seed + r))
        build.append(t)
        cold.append(timed(lambda: backend.propose(Q, np.random.default_rng(r)))[0])
        warm.append(timed(lambda: backend.propose(Q, np.random.default_rng(r)))[0])
        scan.append(timed(lambda: expdesign._removal_scan(X, A, A_half, alpha, beta))[0])
    out = {
        "build_s": statistics.median(build),
        "query_cold_s": statistics.median(cold),
        "query_warm_s": statistics.median(warm),
        "scan_s": statistics.median(scan),
    }
    out["query_cold_over_scan"] = out["query_cold_s"] / out["scan_s"]
    return {k: round(v, 6) for k, v in out.items()}


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
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, BLAS 1 thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": rows,
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
