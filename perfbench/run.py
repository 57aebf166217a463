"""Solver benchmark: accelerated against exact paths, closed loop, one process.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are generated from the
seed and written as Matrix Market files under ``.bench_work/``; then, until
``--seconds`` is used up, each round solves inputs with the accelerated path
and the same inputs with the exact path, and checks every output
(workloads.py).  End-to-end times are scaled to a reference machine speed by
``SpeedGauge``; README.md says why.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
rounds with rounds traced from outside the program (layers.py) and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  ``--workload all``
runs every workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("sparsify-dense", "sparsify-sparse", "ks-afn", "expdesign-aipe")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_PROBES = 9
BATCH_S = 0.5  # least solve time behind one end-to-end sample
RECENT = 16  # instances the exact path cycles through in a batch

#: (name, unit) of the end-to-end metrics, printed by --trace 0
END_TO_END = [
    ("setup_s", "s"),
    ("accel_solve_s.p50", "s"),
    ("accel_solve_s.tail", "s"),
    ("exact_solve_s.p50", "s"),
    ("exact_solve_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("accel_quality", "ratio"),
]


def tail(samples: list[float]) -> tuple[float, str, int]:
    """(value, percentile, samples above it): the highest of p75/p90/p99 with
    at least 10 samples above it, or p75 when a run has fewer than 40."""
    import numpy as np

    for q in (99, 90, 75):
        value = float(np.percentile(samples, q))
        beyond = sum(x > value for x in samples)
        if beyond >= 10:
            break
    return value, f"p{q}", beyond


def probe_setup(workload: str, paths: list[str], gauge) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of set-up, raw
    and scaled to the reference speed."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), workload, *paths]
    before_s = gauge.kernel_s()
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw = float(proc.stdout.split()[-1]) - start
    return raw, gauge.scaled(raw, [before_s, gauge.kernel_s()])


class SpeedGauge:
    """Machine speed, read off a fixed numpy-and-interpreter kernel.

    On the small shared machines this benchmark runs on, the same code runs
    up to 1.5x slower for minutes at a time while the host is busy.  Timing
    the kernel beside every sample and scaling the sample by
    REFERENCE_S / kernel time takes that drift out of the end-to-end times,
    which are then seconds at the reference speed.
    """

    REFERENCE_S = 0.005  # the kernel's wall time at the reference speed
    EVERY_S = 0.05  # least solve time between two readings inside a sample

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sym = rng.standard_normal((32, 32))
        self._sym = sym + sym.T
        self._mat = rng.standard_normal((96, 96))
        self._eigh = np.linalg.eigh

    def kernel_s(self) -> float:
        start = time.perf_counter()
        for _ in range(16):
            self._eigh(self._sym)
        self._mat @ self._mat
        acc = 0
        for j in range(30000):
            acc += j
        return time.perf_counter() - start

    def scaled(self, raw_s: float, readings: list[float]) -> float:
        """raw_s at the reference speed, from kernel times read across it."""
        return raw_s * self.REFERENCE_S / statistics.fmean(readings)


def run_round(wl, draw, batch_s: float = 0.0, tracer=None, gauge=None, recent=None):
    """Solve on each path until its solves add up to ``batch_s`` seconds.

    The accelerated path takes a fresh instance from ``draw()`` for every
    solve; the exact path then solves the same instances, in turn.  With a
    ``recent`` deque, this round's instances are added to it and the exact
    path cycles through all it holds, newest first: a batch of short exact
    solves then covers the instances of several rounds instead of repeating
    the round's one or two, whose solve times differ by the swaps each needs.
    Every output is checked.  A path's sample is the mean time of its solves: the
    machine's speed also flips in phases of about 0.1-1 s, so a sample of
    short solves spans several phases instead of landing in one, and covers
    several random instances.  With a gauge, the mean is also scaled to the
    reference speed read before, during and after the solves.
    Returns (wall s, [(path, mean solve s, scaled mean solve s, verdicts)], instances).
    """
    from workloads import PATHS, Verdict

    out, insts = [], []
    start = time.perf_counter()
    for path in PATHS:
        pool = insts
        if path != PATHS[0] and recent is not None:
            recent.extend(insts)
            pool = list(reversed(recent))
        readings = [gauge.kernel_s()] if gauge else []
        total, since_reading, verdicts = 0.0, 0.0, []
        while not verdicts or total < batch_s:
            if path == PATHS[0]:
                insts.append(draw())
            inst = pool[len(verdicts) % len(pool)]
            t0 = time.perf_counter()
            solve_s = None
            try:
                result = wl.solve(inst, path)
                solve_s = time.perf_counter() - t0
                with tracer.span("bench.oracle") if tracer else nullcontext():
                    verdict = wl.check(inst, path, result)
            except Exception:  # a failing solve is a measured outcome, not a crash
                if solve_s is None:
                    solve_s = time.perf_counter() - t0
                verdict = Verdict(False, {"error": traceback.format_exc(limit=3)})
            total += solve_s
            verdicts.append(verdict)
            since_reading += solve_s
            if gauge and since_reading >= gauge.EVERY_S:
                readings.append(gauge.kernel_s())
                since_reading = 0.0
        mean = total / len(verdicts)
        if gauge and since_reading:
            readings.append(gauge.kernel_s())
        scaled = gauge.scaled(mean, readings) if gauge else mean
        out.append((path, mean, scaled, verdicts))
    return time.perf_counter() - start, out, insts


def measure(args) -> int:
    import numpy as np

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, Instance

    wl = WORKLOADS[args.workload]
    workdir = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        *children, solve_seq = np.random.SeedSequence(args.seed).spawn(wl.count + 1)
        paths = []
        for k, child in enumerate(children):
            paths.append(str(workdir / f"input{k}.mtx"))
            wl.generate(np.random.default_rng(child), paths[-1])

        setup_tracer, solve_tracer = Tracer(), Tracer()
        with setup_tracer.installed(layers.SETUP_SITES) if args.trace else nullcontext():
            families = wl.setup(paths)

        # input files in turn, each time with a fresh seed for the solvers
        solve_seeds = np.random.default_rng(solve_seq)
        draw = (
            Instance(families[i % len(families)], int(solve_seeds.integers(2**32)))
            for i in itertools.count()
        ).__next__
        gauge = SpeedGauge()
        times = {"accel": [], "exact": []}  # scaled to the reference speed
        raw_times = {"accel": [], "exact": []}
        facts = {"accel": [], "exact": []}
        attempted = failed = 0
        errors = []
        overhead = []
        step_s = []
        # set-up samples are spread over the run, like the solves
        probe_at = [] if args.trace else [i * args.seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        setup_samples = []
        start = time.perf_counter()
        rounds = 0
        recent = deque(maxlen=RECENT)
        while True:
            while len(setup_samples) < len(probe_at) and time.perf_counter() - start >= probe_at[len(setup_samples)]:
                setup_samples.append(probe_setup(wl.name, paths, gauge))
            step_start = time.perf_counter()
            if args.trace:
                # single solves, untraced then traced on the same instance
                wall, results, insts = run_round(wl, draw)
                with solve_tracer.installed(layers.SOLVE_SITES), solve_tracer.window():
                    traced_wall, traced, _ = run_round(wl, iter(insts).__next__, tracer=solve_tracer)
                overhead.append(traced_wall / wall - 1.0)
                results = results + traced
            else:
                wall, results, _ = run_round(wl, draw, BATCH_S, gauge=gauge, recent=recent)
            for j, (path, raw_s, scaled_s, verdicts) in enumerate(results):
                if j < 2:
                    raw_times[path].append(raw_s)
                    times[path].append(scaled_s)
                for verdict in verdicts:
                    facts[path].append(verdict.facts)
                    attempted += 1
                    failed += not verdict.ok
                    if "error" in verdict.facts and len(errors) < 3:
                        errors.append(verdict.facts["error"])
            step_s.append(time.perf_counter() - step_start)
            rounds += 1
            if time.perf_counter() - start + statistics.median(step_s) > args.seconds:
                break
        setup_samples += [probe_setup(wl.name, paths, gauge) for _ in probe_at[len(setup_samples):]]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counters = wl.counters(facts["accel"], facts["exact"])
    accel_tail, exact_tail = tail(times["accel"]), tail(times["exact"])
    if args.trace:
        values = layers.per_layer(
            setup_tracer, solve_tracer, rounds, counters, statistics.median(overhead)
        )
        units = dict(layers.PER_LAYER)
        dump = WORK / f"trace-{wl.name}-seed{args.seed}.json"
        dump.write_text(json.dumps({"setup": setup_tracer.dump(), "solve": solve_tracer.dump()}))
    else:
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup_samples),
            "accel_solve_s.p50": statistics.median(times["accel"]),
            "accel_solve_s.tail": accel_tail[0],
            "exact_solve_s.p50": statistics.median(times["exact"]),
            "exact_solve_s.tail": exact_tail[0],
            "peak_rss_mb": peak_rss_mb,
            "accel_quality": wl.quality(facts["accel"]),
        }
        units = dict(END_TO_END)

    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "nproc": os.cpu_count(),
            **{var: os.environ[var] for var in THREAD_VARS},
        },
        "rounds": rounds,
        "samples": {path: len(t) for path, t in times.items()},
        "tail": {
            "accel": {"percentile": accel_tail[1], "beyond": accel_tail[2], "samples": len(times["accel"])},
            "exact": {"percentile": exact_tail[1], "beyond": exact_tail[2], "samples": len(times["exact"])},
        },
        "speedup_exact_over_accel": statistics.median(times["exact"]) / statistics.median(times["accel"]),
        "fail_frac": failed / attempted,
        "raw_wall_s": {
            "setup": [raw for raw, _ in setup_samples],
            "accel_p50": statistics.median(raw_times["accel"]),
            "exact_p50": statistics.median(raw_times["exact"]),
            "speed_gauge_kernel": gauge.kernel_s(),
        },
        **wl.report(facts["accel"], facts["exact"]),
        "errors": errors,
    }
    print(f"# {wl.name}: {wl.why}")
    for name, value in values.items():
        print(f"{name:40s} {value:>14.6g} {units[name]}")
    print(f"{'fail_frac':40s} {failed / attempted:>14.6g} fraction ({failed} of {attempted} solves)")
    print(f"{'speedup exact/accel (not a metric)':40s} {report['speedup_exact_over_accel']:>14.6g}")
    for name, value in wl.report(facts["accel"], facts["exact"]).items():
        if name.endswith("_frac"):
            print(f"{name:40s} {value:>14.6g} fraction (reported, not gated)")
        elif isinstance(value, float):
            print(f"{name:40s} {value:>14.6g} ratio (in accel_quality)")
    print(json.dumps(report))
    metrics = {
        name: {"value": None if math.isnan(v) else v, "unit": units[name]} for name, v in values.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    code = 0
    for name in NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "sparsekit" / "__init__.py").is_file():
        print(f"sparsekit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # numpy reads the thread settings when it is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
