"""Wall time of one RobustMinIpIndex build on the ks-afn settings, by phase.

    PYTHONPATH=src python3 scripts/sweep_afn.py [--n 16 256 2048] [--repeats 3]

For each n, a Kadison-Singer family of n rows is drawn from --seed as the
ks-afn workload draws it (n/2 random orthonormal frames in d=2, scaled by
sqrt(2/n)), and the afn backend is built over all n rows exactly as
ks_select builds it: c=0.505, tau=0.5 (and afn.DELTA = 0.1), MinIpConfig()
(16 sketch rows in 4 blocks, counts scaled by minip.SCALE = 0.25).  With
BLAS pinned to one thread:

    build_s     median wall time of --repeats untraced builds
    phases      one more build, with the calls below timed by self time:
      sketch      TensorSparseSketch.apply_flat
      directions  afn.gaussian_matrix (each DFN copy's Gaussian directions)
      projection  DfnStructure.__init__ and .insert, less the calls inside
                  them (the projections and the Python around them)
      sort        SortedKeyList.__init__ and .insert
      other       the rest of the traced build: seeds, configs, stores

The traced build pays a wrapper per timed call, so its phases add up to
more than build_s when a build makes many calls.  A size whose index would
exceed minip.MAX_STRUCTURES is reported as refused, with the reason.
Prints one JSON object.  The PYTHONPATH decides which source tree is
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
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from sparsekit import afn, sketch, sortedlist  # noqa: E402
from sparsekit.errors import ConfigError  # noqa: E402
from sparsekit.minip import MAX_STRUCTURES  # noqa: E402
from sparsekit.minip_backend import MinIpBackend  # noqa: E402

D, C, TAU = 2, 0.505, 0.5

#: (owner, attribute, phase) of every timed call
PHASES = [
    (sketch.TensorSparseSketch, "apply_flat", "sketch"),
    (afn, "gaussian_matrix", "directions"),
    (afn.DfnStructure, "__init__", "projection"),
    (afn.DfnStructure, "insert", "projection"),
    (sortedlist.SortedKeyList, "__init__", "sort"),
    (sortedlist.SortedKeyList, "insert", "sort"),
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


def phases(X: np.ndarray, seed: int) -> dict:
    timer = SelfTimer()
    for owner, name, phase in PHASES:
        timer.wrap(owner, name, phase)
    try:
        start = time.perf_counter()
        build(X, seed)
        total = time.perf_counter() - start
    finally:
        timer.restore()
    out = {phase: timer.self_s[phase] for _, _, phase in PHASES}
    out["other"] = total - sum(out.values())
    out["traced_total"] = total
    return out


def measure(n: int, repeats: int, seed: int) -> dict:
    X = ks_family(n, np.random.default_rng(seed))
    try:
        first = build(X, seed)
    except ConfigError as err:
        return {"n": n, "refused": str(err)}
    index = first._index
    walls = []
    for r in range(repeats):
        start = time.perf_counter()
        build(X, seed + r)
        walls.append(time.perf_counter() - start)
    return {
        "n": n,
        "structures": len(index.ensemble) * index.kappa,
        "build_s": round(statistics.median(walls), 6),
        "phases_s": {k: round(v, 6) for k, v in phases(X, seed).items()},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[16, 256, 2048])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = {
        "settings": {
            "d": D, "c": C, "tau": TAU, "delta": afn.DELTA,
            "config": "MinIpConfig()",
            "max_structures": MAX_STRUCTURES,
        },
        "repeats": args.repeats,
        "seed": args.seed,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, BLAS 1 thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": [measure(n, args.repeats, args.seed) for n in args.n],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
