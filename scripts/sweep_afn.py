"""Wall time of the ks-afn RobustMinIpIndex by stage and phase: build, battery, insert.

    PYTHONPATH=src python3 scripts/sweep_afn.py [--n 16 256 2048] [--repeats 3] [--inserts 8]

For each n, a Kadison-Singer family of n rows is drawn from --seed as the
ks-afn workload draws it (n/2 random orthonormal frames in d=2, scaled by
sqrt(2/n)), and the afn backend is built over all n rows exactly as
ks_select builds it: c=0.505, tau=0.5 (and afn.DELTA = 0.1), MinIpConfig()
(16 sketch rows in 4 blocks, counts scaled by afn.SCALE = 0.25).  The
index builds the kappa AFN replicas of a sketch (its battery, one
AfnStructure over kappa seeds) only when a query first samples that
sketch, so the stages are timed apart.  With BLAS
pinned to one thread, each stage's median wall time over --repeats runs:

    build_s    the eager part: MinIpBackend construction, which sketches the
               rows into the 1 + k point stores and builds no replica
    battery_s  one battery, RobustMinIpIndex.battery(0), on a fresh index
    insert_s   one MinIpBackend.insert (the row's transform and
               RobustMinIpIndex.insert) into an index whose k batteries are
               all built, as swap_round inserts each swapped-in row after
               retiring the swapped-out one; --inserts rows per run

    phases_s   one more run of each stage (the insert stage with the retire
               before each insert), with the calls below timed by self time:
      sketch      TensorSparseSketch.apply_flat
      directions  afn.gaussian_matrix (every replica's Gaussian directions,
                  one Philox stream per replica)
      keys        DfnStructure.__init__ less the calls inside it: the
                  batched projection GEMM and the one lexsort of all rows
      inserts     DfnStructure.insert (a late build's inserts, and each
                  insert into a built battery)
      other       the rest of the traced stage: seeds, configs, stores

The traced stage pays a wrapper per timed call, so its phases add up to
more than the untraced time when a stage makes many calls.  A size whose
index would exceed minip.MAX_STRUCTURES is reported as refused, with the
reason.  Prints one JSON object.  The PYTHONPATH decides which source tree
is measured.
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
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from sparsekit import afn, sketch  # noqa: E402
from sparsekit.errors import ConfigError  # noqa: E402
from sparsekit.minip import MAX_STRUCTURES  # noqa: E402
from sparsekit.minip_backend import MinIpBackend  # noqa: E402

D, C, TAU = 2, 0.505, 0.5

#: (owner, attribute, phase) of every timed call
PHASES = [
    (sketch.TensorSparseSketch, "apply_flat", "sketch"),
    (afn, "gaussian_matrix", "directions"),
    (afn.DfnStructure, "__init__", "keys"),
    (afn.DfnStructure, "insert", "inserts"),
]


def ks_family(n: int, rng: np.random.Generator) -> np.ndarray:
    frames = n // D
    blocks = []
    for _ in range(frames):
        frame, R = np.linalg.qr(rng.standard_normal((D, D)))
        blocks.append(frame * np.sign(np.diag(R)) / math.sqrt(frames))
    return np.vstack(blocks)


def build(X: np.ndarray, seed: int) -> MinIpBackend:
    return MinIpBackend("afn", X, range(len(X)), c=C, tau=TAU, seed=seed)


class SelfTimer:
    """Self time per phase: a call's time less the timed calls inside it."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self._children = []
        self._saved = []

    def wrap(self, owner, name: str, phase: str) -> None:
        fn = getattr(owner, name)
        self._saved.append((owner, name, fn))

        def timed(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[phase] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed

        setattr(owner, name, timed)

    def restore(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def traced(fn) -> dict:
    """Self time of fn() by phase, with its traced total."""
    timer = SelfTimer()
    for owner, name, phase in PHASES:
        timer.wrap(owner, name, phase)
    try:
        total = timed(fn)
    finally:
        timer.restore()
    out = {phase: timer.self_s[phase] for _, _, phase in PHASES}
    out["other"] = total - sum(out.values())
    out["traced_total"] = total
    return {key: round(value, 6) for key, value in out.items()}


def all_batteries(X: np.ndarray, seed: int) -> MinIpBackend:
    backend = build(X, seed)
    for j in range(len(backend._index.ensemble)):
        backend._index.battery(j)
    return backend


def insert_times(backend: MinIpBackend, rows) -> list:
    """Wall time of each re-insert, after retiring the row."""
    walls = []
    for row in rows:
        backend.retire(row)
        walls.append(timed(lambda: backend.insert(row)))
    return walls


def measure(n: int, repeats: int, inserts: int, seed: int) -> dict:
    X = ks_family(n, np.random.default_rng(seed))
    try:
        first = build(X, seed)
    except ConfigError as err:
        return {"n": n, "refused": str(err)}
    index = first._index
    rows = range(min(inserts, n))
    build_walls, battery_walls, insert_walls = [], [], []
    for r in range(repeats):
        build_walls.append(timed(lambda: build(X, seed + r)))
        fresh = build(X, seed + r)._index
        battery_walls.append(timed(lambda: fresh.battery(0)))
        insert_walls += insert_times(all_batteries(X, seed + r), rows)
    fresh = build(X, seed)._index
    full = all_batteries(X, seed)
    return {
        "n": n,
        "structures": len(index.ensemble) * index.kappa,
        "kappa": index.kappa,
        "build_s": round(statistics.median(build_walls), 6),
        "battery_s": round(statistics.median(battery_walls), 6),
        "insert_s": round(statistics.median(insert_walls), 6),
        "phases_s": {
            "build": traced(lambda: build(X, seed)),
            "battery": traced(lambda: fresh.battery(0)),
            "insert": traced(lambda: insert_times(full, rows)),
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
            "config": "MinIpConfig()",
            "max_structures": MAX_STRUCTURES,
        },
        "repeats": args.repeats,
        "inserts": args.inserts,
        "seed": args.seed,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, BLAS 1 thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": [measure(n, args.repeats, args.inserts, args.seed) for n in args.n],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
