"""One sha256 over many afn-backend solves, to check that two trees agree.

    PYTHONPATH=src python3 scripts/replay_afn.py [--ks 256] [--swap 18] [--sparsify 32]
                                                 [--aipe 128]

Runs --ks Kadison-Singer selections and --swap experimental-design swap
roundings on the afn Min-IP backend and hashes what each returns:

    ks_select   (d, N) in (2, 8), (2, 12), (3, 6), (3, 8), n = dN/2, with
                c=0.505, tau=0.5 and a sketch of 16 or 8 rows; solve i takes
                the (i mod 8)-th of these 8 settings and seed i // 8, and a
                family of N random orthonormal d-frames scaled by 1/sqrt(N)
                drawn from that seed, as the ks-afn workload draws it
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
rounding), or score_trace, potential_trace and final_norm (KS).  Prints one
JSON object; the PYTHONPATH decides which source tree is replayed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from sparsekit import expdesign, kadison_singer, sparsifier  # noqa: E402
from sparsekit.errors import SparsekitError  # noqa: E402
from sparsekit.linalg import VectorFamily, whiten  # noqa: E402
from sparsekit.minip import MinIpConfig  # noqa: E402

KS_SHAPES = [(2, 8), (2, 12), (3, 6), (3, 8)]
KS_SKETCH_DIMS = [16, 8]
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


def ks_family(d: int, N: int, seed: int) -> VectorFamily:
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(N):
        Q, R = np.linalg.qr(rng.standard_normal((d, d)))
        blocks.append(Q * np.sign(np.diag(R)) / math.sqrt(N))
    return VectorFamily(np.vstack(blocks))


def rare_direction_rows(seed: int, m: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = d // 2
    X = rng.standard_normal((m, d))
    X[:, half:] = 0.0
    rare = rng.choice(m, size=d - half, replace=False)
    X[rare, np.arange(half, d)] = 1.0
    return X


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
    settings = [(shape, b) for shape in KS_SHAPES for b in KS_SKETCH_DIMS]
    (d, N), b = settings[i % len(settings)]
    seed = i // len(settings)
    out = kadison_singer.ks_select(
        ks_family(d, N, seed),
        N,
        d * N // 2,
        backend="afn",
        c=KS_C,
        tau=KS_TAU,
        seed=seed,
        minip_config=MinIpConfig(sketch_dim=b),
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


def aipe_record(i: int) -> list:
    seed = i // 2
    if i % 2:
        d, N, c, tau = AIPE_KS
        out = kadison_singer.ks_select(
            ks_family(d, N, seed), N, d * N // 2, backend="aipe", c=c, tau=tau, seed=seed
        )
        traces = (out.score_trace, out.potential_trace, [out.final_norm])
    else:
        d, eps, gamma, c, tau, n, m = AIPE_SWAP
        pi = np.full(m, n / m)
        family = whiten(VectorFamily(rare_direction_rows(seed, m, d)), pi)
        out = expdesign.swap_round(
            family, pi, n, eps, gamma=gamma, c=c, tau=tau, backend="aipe", seed=seed
        )
        traces = (out.lambda_trace, out.trace_minus, out.trace_plus, out.trace_norm)
    return [out.selection.indices.tolist(), out.fallbacks, *map(hexes, traces)]


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
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    ks_s = replay(ks_record, args.ks, digest)
    swap_s = replay(swap_record, args.swap, digest)
    sparsify_digest = hashlib.sha256()
    sparsify_s = replay(sparsify_record, args.sparsify, sparsify_digest)
    aipe_digest = hashlib.sha256()
    aipe_s = replay(aipe_record, args.aipe, aipe_digest)
    report = {
        "ks_solves": args.ks,
        "swap_solves": args.swap,
        "sparsify_inputs": args.sparsify,
        "aipe_solves": args.aipe,
        "sha256": digest.hexdigest(),
        "sparsify_sha256": sparsify_digest.hexdigest(),
        "aipe_sha256": aipe_digest.hexdigest(),
        "ks_s": round(ks_s, 6),
        "swap_s": round(swap_s, 6),
        "sparsify_s": round(sparsify_s, 6),
        "aipe_s": round(aipe_s, 6),
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
