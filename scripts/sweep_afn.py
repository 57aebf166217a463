"""Wall time of the ks-afn RobustMinIpIndex by stage and phase: build, tables, battery, insert.

    PYTHONPATH=src python3 scripts/sweep_afn.py [--n 16 256 2048] [--repeats 3] [--inserts 8]

For each n, a Kadison-Singer family of n rows is drawn from --seed as the
ks-afn workload draws it (n/2 random orthonormal frames in d=2, scaled by
sqrt(2/n)), and the afn backend is built over all n rows exactly as
ks_select builds it: c=0.505, tau=0.5 (and afn.DELTA = 0.1), sketches of
minip.SKETCH_DIM = 16 rows in minip.SKETCH_BLOCKS = 4 blocks, counts scaled
by afn.SCALE = 0.25.  The index builds the kappa AFN replicas of a sketch
(its battery, one AfnStructure over kappa Philox keys) only when a query first
samples that sketch, so the stages are timed apart.  With BLAS on one
thread (see sweeplib), each stage's median wall time over --repeats runs:

    build_s    the eager part: MinIpBackend construction, which draws the
               sketch ensemble, sketches the rows into the 1 + k point stores
               and builds no replica
    tables_s   the part of the build that draws the ensemble: the
               SketchEnsemble construction, whose one generator draws every
               member's hash polynomials and one Horner pass evaluates them
    battery_s  one battery, RobustMinIpIndex.battery(0), on a fresh index
    insert_s   one MinIpBackend.insert (the row's transform and
               RobustMinIpIndex.insert) into an index whose k batteries are
               all built, as swap_round inserts each swapped-in row after
               retiring the swapped-out one; --inserts rows per run

    phases_s   one more run of each stage (the insert stage with the retire
               before each insert), with the calls below timed by self time
               (sweeplib.phase_times):
      sketch      TensorSparseSketch.apply_flat (each member's scatter plan,
                  applied by one bincount)
      seeds       afn.philox_keys, as RobustMinIpIndex.battery calls it (a
                  battery's kappa Philox keys, in one vectorized pass)
      directions  afn.gaussian_matrix (every replica's Gaussian directions:
                  one Philox bit generator, restarted at each replica's key)
      keys        DfnStructure.__init__ less the calls inside it: the
                  batched projection GEMM and the one stable argsort of all
                  rows
      inserts     DfnStructure.insert (a late build's inserts, and each
                  insert into a built battery)
      other       the rest of the traced stage: configs, the ensemble's
                  table draw, stores

The traced stage pays a wrapper per timed call, so its phases add up to
more than the untraced time when a stage makes many calls.  A size whose
index would exceed minip.MAX_STRUCTURES is reported as refused, with the
reason.  Prints one JSON object.  The PYTHONPATH decides which source tree
is measured.
"""

from __future__ import annotations

import argparse
import json
import statistics

from sweeplib import ks_frames, machine, phase_times, timed  # before numpy

from sparsekit import afn, minip, sketch
from sparsekit.errors import ConfigError
from sparsekit.minip import MAX_STRUCTURES, SKETCH_BLOCKS, SKETCH_DIM
from sparsekit.minip_backend import MinIpBackend

D, C, TAU = 2, 0.505, 0.5

#: (phase, owner, attribute) of every timed call
PHASES = [
    ("sketch", sketch.TensorSparseSketch, "apply_flat"),
    ("seeds", minip, "philox_keys"),
    ("directions", afn, "gaussian_matrix"),
    ("keys", afn.DfnStructure, "__init__"),
    ("inserts", afn.DfnStructure, "insert"),
]


def build(X, seed: int) -> MinIpBackend:
    return MinIpBackend("afn", X, range(len(X)), c=C, tau=TAU, seed=seed)


def all_batteries(X, seed: int) -> MinIpBackend:
    backend = build(X, seed)
    for j in range(len(backend._index.ensemble)):
        backend._index.battery(j)
    return backend


def insert_times(backend: MinIpBackend, rows) -> list:
    """Wall time of each re-insert, after retiring the row."""
    walls = []
    for row in rows:
        backend.retire(row)
        walls.append(timed(lambda: backend.insert(row))[0])
    return walls


def measure(n: int, repeats: int, inserts: int, seed: int) -> dict:
    X = ks_frames(D, n // D, seed)
    try:
        first = build(X, seed)
    except ConfigError as err:
        return {"n": n, "refused": str(err)}
    index = first._index
    rows = range(min(inserts, n))
    build_walls, tables_walls, battery_walls, insert_walls = [], [], [], []
    for r in range(repeats):
        build_walls.append(timed(lambda: build(X, seed + r))[0])
        shape = dict(index.ensemble.descriptor(), master_seed=seed + r)
        tables_walls.append(timed(lambda: sketch.SketchEnsemble(**shape))[0])
        fresh = build(X, seed + r)._index
        battery_walls.append(timed(lambda: fresh.battery(0))[0])
        insert_walls += insert_times(all_batteries(X, seed + r), rows)
    fresh = build(X, seed)._index
    full = all_batteries(X, seed)
    stages = {
        "build": lambda: build(X, seed),
        "battery": lambda: fresh.battery(0),
        "insert": lambda: insert_times(full, rows),
    }
    return {
        "n": n,
        "structures": len(index.ensemble) * index.kappa,
        "kappa": index.kappa,
        "build_s": round(statistics.median(build_walls), 6),
        "tables_s": round(statistics.median(tables_walls), 6),
        "battery_s": round(statistics.median(battery_walls), 6),
        "insert_s": round(statistics.median(insert_walls), 6),
        "phases_s": {
            stage: {key: round(value, 6) for key, value in phase_times(PHASES, fn).items()}
            for stage, fn in stages.items()
        },
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[16, 256, 2048])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--inserts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = {
        "settings": {
            "d": D, "c": C, "tau": TAU, "delta": afn.DELTA,
            "sketch": f"{SKETCH_DIM} rows in {SKETCH_BLOCKS} blocks",
            "max_structures": MAX_STRUCTURES,
        },
        "repeats": args.repeats,
        "inserts": args.inserts,
        "seed": args.seed,
        **machine(),
        "sizes": [measure(n, args.repeats, args.inserts, args.seed) for n in args.n],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
