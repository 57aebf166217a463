"""What the sweep and replay scripts share: the BLAS pin, timers and row generators.

A script imports this module before numpy: the import pins OpenBLAS, OpenMP
and MKL to one thread, so every measurement runs BLAS on one thread and
every replayed bit comes from one-thread BLAS.

phase_times installs perfbench's Tracer (perfbench/tracer.py) over one
Site per timed call and reads each phase's self time from its summary: a
call's time less the time of the traced calls inside it.  A site on a
module-level function patches that function in every loaded sparsekit
module that holds it, so a phase covers all of its callers; sweep_swap's
checks sites, named on expdesign, time check_symmetric wherever it is
called from.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Site, Tracer  # noqa: E402


def machine() -> dict:
    """The header every report carries: host, Python and numpy."""
    return {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, BLAS 1 thread",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def timed(fn):
    """(wall seconds, result) of fn()."""
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def phase_times(sites, fn) -> dict:
    """Self seconds of fn() per phase, with other (the rest) and traced_total.

    ``sites`` holds (phase, owner, attr) entries; several may share a phase.
    The originals are restored when fn returns or raises.
    """
    tracer = Tracer()
    with tracer.installed([Site(*site) for site in sites]):
        total, _ = timed(fn)
    summary = tracer.summary()
    out = {phase: summary.get(phase, {"self_s": 0.0})["self_s"] for phase, _, _ in sites}
    out["other"] = total - sum(out.values())
    out["traced_total"] = total
    return out


def rare_direction_rows(seed: int, m: int, d: int) -> np.ndarray:
    """Gaussian rows on the first d/2 coordinates; each other coordinate is
    carried by one row only, so a random n-subset almost surely misses it."""
    rng = np.random.default_rng(seed)
    half = d // 2
    X = rng.standard_normal((m, d))
    X[:, half:] = 0.0
    rare = rng.choice(m, size=d - half, replace=False)
    X[rare, np.arange(half, d)] = 1.0
    return X


def ks_frames(d: int, N: int, seed: int) -> np.ndarray:
    """N random orthonormal d-frames, sign-balanced and scaled by 1/sqrt(N):
    dN rows of norm 1/sqrt(N) whose Gram matrix is I (a Kadison-Singer family)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(N):
        Q, R = np.linalg.qr(rng.standard_normal((d, d)))
        blocks.append(Q * np.sign(np.diag(R)) / math.sqrt(N))
    return np.vstack(blocks)
