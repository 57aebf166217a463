"""Four sha256 hashes over KS, swap, sparsify, aipe and exact solves, to check two trees agree.

    PYTHONPATH=src python3 scripts/replay_afn.py [--ks 256] [--swap 18] [--sparsify 32]
                                                 [--aipe 128] [--exact 128]

Runs --ks Kadison-Singer selections and --swap experimental-design swap
roundings on the afn Min-IP backend and hashes what each returns:

    ks_select   (d, N) in (2, 8), (2, 12), (3, 6), (3, 8), n = dN/2, with
                c=0.505, tau=0.5; solve i takes the (i mod 4)-th of these 4
                shapes and seed i // 4, and a family of N random
                orthonormal d-frames scaled by 1/sqrt(N) drawn from that
                seed, as the ks-afn workload draws it
    swap_round  the golden afn case's settings (d=2, m=310, n=155,
                eps=1/6, gamma=6, c=0.905, tau=0.9) over rare-direction rows;
                solve i takes rows seed i // 3 and solver seed i mod 3

Each solve adds its selected indices and fallbacks to the hash, with every
float of score_trace and final_norm (KS) or lambda_trace (swap rounding) as
float.hex, so equal hashes mean bit-identical outputs.  A solve that raises
adds the exception's class name instead.

The --sparsify inputs go to a second hash, sparsify_sha256, so `sha256`
stays comparable with runs that had no such part.  Input i is drawn from
seed i // 2 in the shape of a sparsify benchmark workload, dense for even i
and sparse for odd i, and solved by sparsify_fast and bss_reference at
epsilon 0.25:

    dense       8,192 whitened Gaussian rows in R^16
    sparse      96 rows in R^32 with 2 nonzeros each: 6 rows at evenly
                spaced angles on each of 16 coordinate pairs, with the
                coordinates, the phase and the row order drawn at random

Each sparsify solve adds its indices and fallbacks, its tree kind and
barrier flag, and every weight, entry of A_final, potential and gap sum as
float.hex.

The --aipe solves go to a third hash, aipe_sha256.  They alternate two
solvers on the aipe Min-IP backend; even solve 2k and odd solve 2k+1 both
take seed k:

    swap_round  the expdesign-aipe workload's shape (d=4, m=3,088, n=772,
                eps=0.2, gamma=4, c=0.9, tau=0.5) over rare-direction rows
                drawn from seed k, solver seed k
    ks_select   the golden aipe case's settings (d=2, N=8, n=8, c=0.505,
                tau=0.5) over a ks_select family drawn from seed k, solver
                seed k

Each adds its indices and fallbacks with every float of its traces as
float.hex: lambda_trace, trace_minus, trace_plus and trace_norm (swap
rounding), or score_trace, potential_trace and final_norm (KS).

The --exact solves go to a fourth hash, exact_sha256.  Solve i is the
--aipe part's solve i on the exact backend: the same rows and seeds, with
no tau.  Each adds the same indices and traces, and a swap rounding also
its random starting set.  Prints one JSON object; the PYTHONPATH decides
which source tree is replayed.  Beside the hashes it prints numpy's version
and the SIMD target numpy runs float64 `power` on (`power_dispatch`): array
powers differ from libm `pow` in last bits by target, so hashes recorded
under one target need not hold under another.  BLAS runs on one thread, and
the KS frames and rare-direction rows are the golden tests' generators (see
sweeplib).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time

from sweeplib import ks_frames, rare_direction_rows  # before numpy

import numpy as np

from sparsekit import expdesign, kadison_singer, sparsifier
from sparsekit.errors import SparsekitError
from sparsekit.linalg import VectorFamily, whiten

KS_SHAPES = [(2, 8), (2, 12), (3, 6), (3, 8)]
KS_C, KS_TAU = 0.505, 0.5
# the afn case of tests/test_solvers_golden.py: (d, eps, gamma, c, tau, n, m)
SWAP = (2, 1.0 / 6.0, 6.0, 0.905, 0.9, 155, 310)
SWAP_SOLVER_SEEDS = 3
# the expdesign-aipe workload: (d, eps, gamma, c, tau, n, m)
AIPE_SWAP = (4, 0.2, 4.0, 0.9, 0.5, 772, 3088)
# the aipe case of tests/test_solvers_golden.py: (d, N, c, tau)
AIPE_KS = (2, 8, 0.505, 0.5)
SPARSIFY_EPSILON = 0.25
SPARSIFY_DENSE = (8192, 16)  # (m, d)
SPARSIFY_SPARSE = (32, 6)  # (d, angles per coordinate pair)


def dense_family(seed: int) -> VectorFamily:
    m, d = SPARSIFY_DENSE
    return whiten(VectorFamily(np.random.default_rng(seed).standard_normal((m, d))))


def sparse_family(seed: int) -> VectorFamily:
    """Angles pi (k + phase) / K on each pair; they sum exactly to the identity."""
    d, K = SPARSIFY_SPARSE
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d)
    phase = rng.uniform(0.1, 0.4)
    theta = math.pi * (np.arange(K) + phase) / K
    X = np.zeros((K * d // 2, d))
    for p in range(d // 2):
        X[p * K : (p + 1) * K, perm[2 * p]] = np.cos(theta)
        X[p * K : (p + 1) * K, perm[2 * p + 1]] = np.sin(theta)
    order = rng.permutation(len(X))  # row r moves to order[r]
    rows = np.empty_like(X)
    rows[order] = X * math.sqrt(2.0 / K)
    return VectorFamily(rows)


def hexes(values) -> list:
    return [float(v).hex() for v in values]


def ks_record(i: int) -> list:
    d, N = KS_SHAPES[i % len(KS_SHAPES)]
    seed = i // len(KS_SHAPES)
    out = kadison_singer.ks_select(
        VectorFamily(ks_frames(d, N, seed)),
        N,
        d * N // 2,
        backend="afn",
        c=KS_C,
        tau=KS_TAU,
        seed=seed,
    )
    return [
        out.selection.indices.tolist(),
        out.fallbacks,
        hexes(out.score_trace),
        float(out.final_norm).hex(),
    ]


def swap_record(i: int) -> list:
    d, eps, gamma, c, tau, n, m = SWAP
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(i // SWAP_SOLVER_SEEDS, m, d)), pi)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c, tau=tau, backend="afn",
        seed=i % SWAP_SOLVER_SEEDS,
    )
    return [out.selection.indices.tolist(), out.fallbacks, hexes(out.lambda_trace)]


def alternating_solve(i: int, backend: str):
    """(result, float traces) of swap rounding for even i, KS for odd i; seed i // 2."""
    seed = i // 2
    if i % 2:
        d, N, c, tau = AIPE_KS
        window = {} if backend == "exact" else {"c": c, "tau": tau}
        out = kadison_singer.ks_select(
            VectorFamily(ks_frames(d, N, seed)), N, d * N // 2, backend=backend, seed=seed, **window
        )
        return out, (out.score_trace, out.potential_trace, [out.final_norm])
    d, eps, gamma, c, tau, n, m = AIPE_SWAP
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(seed, m, d)), pi)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c,
        tau=None if backend == "exact" else tau, backend=backend, seed=seed,
    )
    return out, (out.lambda_trace, out.trace_minus, out.trace_plus, out.trace_norm)


def aipe_record(i: int) -> list:
    out, traces = alternating_solve(i, "aipe")
    return [out.selection.indices.tolist(), out.fallbacks, *map(hexes, traces)]


def exact_record(i: int) -> list:
    out, traces = alternating_solve(i, "exact")
    record = [out.selection.indices.tolist(), *map(hexes, traces)]
    if i % 2 == 0:
        record.append(out.initial_set.tolist())
    return record


def sparsify_record(i: int) -> list:
    family = (sparse_family if i % 2 else dense_family)(i // 2)
    records = []
    for solver in (sparsifier.sparsify_fast, sparsifier.bss_reference):
        try:
            selection, A_final, trace = solver(family, SPARSIFY_EPSILON)
        except SparsekitError as err:
            records.append(type(err).__name__)
            continue
        records.append(
            [
                selection.indices.tolist(),
                hexes(selection.weights),
                hexes(A_final.ravel()),
                hexes(trace.upper_potentials),
                hexes(trace.lower_potentials),
                hexes(trace.gap_sums),
                trace.fallbacks,
                trace.tree_kind,
                trace.barrier_contained,
            ]
        )
    return records


def power_dispatch() -> str:
    """The SIMD target of float64 power, e.g. X86_V4; "unknown" before numpy 2.0."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    return opt_func_info("^power$", "float64")["power"]["ddd"]["current"]


def replay(record, count: int, digest) -> float:
    """Hash `count` solves' records into `digest`; returns the wall time."""
    start = time.perf_counter()
    for i in range(count):
        try:
            rec = record(i)
        except SparsekitError as err:
            rec = type(err).__name__
        digest.update(json.dumps(rec).encode())
    return time.perf_counter() - start


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ks", type=int, default=256, help="ks_select solves")
    parser.add_argument("--swap", type=int, default=18, help="swap_round solves")
    parser.add_argument(
        "--sparsify", type=int, default=32, help="inputs each solved by both BSS variants"
    )
    parser.add_argument("--aipe", type=int, default=128, help="aipe-backend solves")
    parser.add_argument("--exact", type=int, default=128, help="exact-backend solves")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    ks_s = replay(ks_record, args.ks, digest)
    swap_s = replay(swap_record, args.swap, digest)
    sparsify_digest = hashlib.sha256()
    sparsify_s = replay(sparsify_record, args.sparsify, sparsify_digest)
    aipe_digest = hashlib.sha256()
    aipe_s = replay(aipe_record, args.aipe, aipe_digest)
    exact_digest = hashlib.sha256()
    exact_s = replay(exact_record, args.exact, exact_digest)
    report = {
        "ks_solves": args.ks,
        "swap_solves": args.swap,
        "sparsify_inputs": args.sparsify,
        "aipe_solves": args.aipe,
        "exact_solves": args.exact,
        "sha256": digest.hexdigest(),
        "sparsify_sha256": sparsify_digest.hexdigest(),
        "aipe_sha256": aipe_digest.hexdigest(),
        "exact_sha256": exact_digest.hexdigest(),
        "ks_s": round(ks_s, 6),
        "swap_s": round(swap_s, 6),
        "sparsify_s": round(sparsify_s, 6),
        "aipe_s": round(aipe_s, 6),
        "exact_s": round(exact_s, 6),
        "numpy": np.__version__,
        "power_dispatch": power_dispatch(),
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
