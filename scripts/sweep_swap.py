"""Wall time of one exact swap rounding solve, split by phase.

    PYTHONPATH=src python3 scripts/sweep_swap.py [--d 4 8 16] [--repeats 5] [--runs 20]
                                                  [--seed 0]

For each d, rare-direction rows (Gaussian on the first d/2 coordinates; each
other coordinate is carried by one row only) are drawn from --seed, with n
the least feasible size ceil(6d/eps^2/(gamma-1-2/c)) and m = 4n, whitened
for the uniform design pi = n/m, and solved by expdesign.swap_round on the
exact backend at the expdesign-aipe settings (eps=0.2, gamma=4, c=0.9),
with solver seeds seed, seed+1, ... for --repeats solves.  BLAS runs on one
thread (see sweeplib).  Each solve runs --runs times as it is (solve_s),
then --runs times with these expdesign functions wrapped by timers:

    eigendecompose  the one eigendecomposition of Z per iteration
    find_ct         Newton's method for c_t
    a_t             A_half and A from c_t (swap_matrices, less find_ct)
    z_update        the rank-two update of Z per swap (_swap_gram)
    row_forms       the one pass per swap that scores all m rows (_row_forms)
    removal_scan    the B^- selection among the members (_removal_scan)
    addition_scan   the B^+ selection among the non-members (_addition_scan)
    checks          the isotropy check of the input, and the checks of the
                    final selection and of Z (WeightedSelection,
                    check_symmetric)
    other           the rest of the traced solve, untimed inside: the pi
                    and window checks, the random start and the first
                    gather of Z, the masks, the propose-or-scan step

Each phase is self time, read by sweeplib.phase_times from perfbench's
tracer: a call's time less the timed calls inside it.
Prints one JSON object: per d, the median over all runs of solve_s, of each
phase's seconds and of the traced total, with named_frac, the share of the
traced total that the named phases take (other is the rest), and the
solves' median swap count.  The PYTHONPATH decides which source tree is
measured.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics

from sweeplib import machine, phase_times, rare_direction_rows, timed  # before numpy

import numpy as np

from sparsekit import expdesign
from sparsekit.linalg import VectorFamily, whiten

EPSILON, GAMMA, C = 0.2, 4.0, 0.9
#: (phase, owner, name of the function it times)
PHASES = [
    ("eigendecompose", expdesign, "eigendecompose"),
    ("find_ct", expdesign, "find_ct"),
    ("a_t", expdesign, "swap_matrices"),
    ("z_update", expdesign, "_swap_gram"),
    ("row_forms", expdesign, "_row_forms"),
    ("removal_scan", expdesign, "_removal_scan"),
    ("addition_scan", expdesign, "_addition_scan"),
    ("checks", expdesign, "check_isotropy"),
    ("checks", expdesign, "WeightedSelection"),
    ("checks", expdesign, "check_symmetric"),
]


def least_n(d: int) -> int:
    return math.ceil(6 * d / EPSILON**2 / (GAMMA - 1 - 2 / C))


def measure(d: int, repeats: int, runs: int, seed: int) -> dict:
    n = least_n(d)
    m = 4 * n
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(seed, m, d)), pi)
    traces, untraced, swaps = [], [], []
    for r in range(repeats):
        def solve():
            return expdesign.swap_round(family, pi, n, EPSILON, gamma=GAMMA, c=C, seed=seed + r)

        for _ in range(runs):
            seconds, result = timed(solve)
            untraced.append(seconds)
        traces += [phase_times(PHASES, solve) for _ in range(runs)]
        swaps.append(result.swaps)
    phases = {key: statistics.median(run[key] for run in traces) for key in traces[0]}
    return {
        "d": d,
        "n": n,
        "m": m,
        "swaps": statistics.median(swaps),
        "solve_s": round(statistics.median(untraced), 6),
        "phases_s": {key: round(value, 6) for key, value in phases.items()},
        "named_frac": round(1.0 - phases["other"] / phases["traced_total"], 4),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, nargs="+", default=[4, 8, 16])
    parser.add_argument("--repeats", type=int, default=5, help="solver seeds per size")
    parser.add_argument("--runs", type=int, default=20, help="timed runs of each solve")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = {
        "settings": {"epsilon": EPSILON, "gamma": GAMMA, "c": C, "backend": "exact"},
        "repeats": args.repeats,
        "runs": args.runs,
        "seed": args.seed,
        **machine(),
        "sizes": [measure(d, args.repeats, args.runs, args.seed) for d in args.d],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
