"""Command dispatch, seeded reproducible runs, and JSON report emission.

Commands: sparsify, ks, expdesign, bench, oracle.  Reports are JSON and
replayable: two runs with the same config and seed produce byte-identical
reports once the "timings" block is removed.  Exit codes distinguish the
error classes:

    0 success          3 precondition violation
    2 config error     4 numerical-warning escalation
    1 other error      5 iteration cap exhausted
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import expdesign as xd
from . import kadison_singer as ks
from . import sparsifier as sp
from .aipe import AipeConfig
from .errors import (
    ConfigError,
    IterationExhausted,
    NumericalWarning,
    PreconditionViolation,
    SparsekitError,
)
from .io import parse_matrix_file
from .linalg import VectorFamily, whiten
from .minip import MinIpConfig, RobustMinIpIndex, exact_min_ip, minip_transform_query
from .psearch import BatchedVectorSearchTree, MatrixSearchTree
from .sketch import SketchEnsemble

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_EXHAUSTED = 5

ENV_SEED = "SPARSEKIT_SEED"


@dataclass
class RunConfig:
    command: str
    input: str = None
    format: str = None
    epsilon: float = 0.25
    c: float = None
    tau: float = None
    lam: float = 0.05
    delta: float = 0.1
    gamma: float = xd.DEFAULT_GAMMA
    n: int = None
    N: float = None
    seed: int = 0
    profile: str = "full"
    omega: float = 3.0
    backend: str = "exact"
    whiten: bool = False
    output: str = None

    def minip_config(self) -> MinIpConfig:
        return MinIpConfig.desk() if self.profile == "desk" else MinIpConfig()

    def aipe_config(self) -> AipeConfig:
        return AipeConfig.desk() if self.profile == "desk" else AipeConfig()


def _report_skeleton(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "config": {k: v for k, v in asdict(config).items() if v is not None},
        "timings": {},
    }


def _load_family(config: RunConfig) -> VectorFamily:
    if config.input is None:
        raise ConfigError("--input is required for this command")
    family = parse_matrix_file(config.input, config.format)
    if config.whiten:
        family = whiten(family)
    return family


def run_sparsify(config: RunConfig) -> dict:
    report = _report_skeleton(config)
    family = _load_family(config)
    t0 = time.perf_counter()
    sel_ref, A_ref, trace_ref = sp.bss_reference(family, config.epsilon)
    t1 = time.perf_counter()
    sel_fast, A_fast, trace_fast = sp.sparsify_fast(family, config.epsilon, config.omega)
    t2 = time.perf_counter()
    verdict_ref = sp.verify_sparsifier(family, sel_ref, config.epsilon)
    verdict_fast = sp.verify_sparsifier(family, sel_fast, config.epsilon)
    report["timings"] = {"reference_s": t1 - t0, "fast_s": t2 - t1}
    report["reference"] = {
        "selection": sel_ref.as_dict(),
        "verdict": verdict_ref.as_dict(),
        "fallbacks": trace_ref.fallbacks,
    }
    report["fast"] = {
        "selection": sel_fast.as_dict(),
        "verdict": verdict_fast.as_dict(),
        "tree_kind": trace_fast.tree_kind,
        "fallbacks": trace_fast.fallbacks,
    }
    report["verdict"] = "pass" if (verdict_ref.passed and verdict_fast.passed) else "fail"
    return report


def run_ks(config: RunConfig) -> dict:
    report = _report_skeleton(config)
    family = _load_family(config)
    if config.N is None or config.n is None:
        raise ConfigError("--N and --n are required for ks")
    t0 = time.perf_counter()
    result = ks.ks_select(
        family,
        config.N,
        config.n,
        backend=config.backend,
        c=config.c,
        tau=config.tau,
        delta=config.delta,
        seed=config.seed,
        aipe_config=config.aipe_config(),
        minip_config=config.minip_config(),
    )
    report["timings"] = {"select_s": time.perf_counter() - t0}
    a_n = result.barrier_sequence[-1]
    if result.backend == "exact":
        bound = a_n
    elif result.backend == "aipe":
        bound = result.beta * a_n  # (1/c) a_n
    else:
        bound = 2.0 * result.beta * a_n  # (2/c) a_n
    report["result"] = result.as_dict()
    report["bound"] = bound
    report["verdict"] = "pass" if result.final_norm <= bound else "fail"
    return report


def run_expdesign(config: RunConfig) -> dict:
    report = _report_skeleton(config)
    if config.input is None:
        raise ConfigError("--input is required for this command")
    if config.n is None:
        raise ConfigError("--n is required for expdesign")
    family = parse_matrix_file(config.input, config.format)
    pi = np.full(family.count, min(1.0, config.n / family.count))
    if config.whiten:
        # whiten against pi so the fractional design is exactly isotropic
        family = whiten(family, pi)
    t0 = time.perf_counter()
    result = xd.swap_round(
        family,
        pi,
        config.n,
        config.epsilon,
        gamma=config.gamma,
        c=config.c if config.c is not None else xd.DEFAULT_C,
        tau=config.tau,
        backend=config.backend,
        seed=config.seed,
        aipe_config=config.aipe_config(),
        minip_config=config.minip_config(),
    )
    report["timings"] = {"swap_s": time.perf_counter() - t0}
    report["result"] = result.as_dict()
    threshold = 1.0 - config.gamma * config.epsilon
    report["threshold"] = threshold
    report["verdict"] = "pass" if result.lambda_min > threshold else "fail"
    return report


def run_bench(config: RunConfig) -> dict:
    """Per-iteration search-time comparison: tree vs linear scan."""
    report = _report_skeleton(config)
    rng = np.random.default_rng(config.seed)
    m, d = (4096, 16) if config.n is None else (config.n, 16)
    raw = rng.standard_normal((m, d))
    family = whiten(VectorFamily(raw))
    V = family.vectors
    queries = [rng.standard_normal((d, d)) for _ in range(32)]
    queries = [Q + Q.T + 2 * d * np.eye(d) for Q in queries]  # positive totals
    tree = BatchedVectorSearchTree(family)
    mtree = MatrixSearchTree([np.outer(v, v) for v in V])

    t0 = time.perf_counter()
    for Q in queries:
        tree.query_positive(Q)
    tree_time = (time.perf_counter() - t0) / len(queries)
    t0 = time.perf_counter()
    for Q in queries:
        mtree.query_positive(Q)
    mtree_time = (time.perf_counter() - t0) / len(queries)
    t0 = time.perf_counter()
    for Q in queries:
        vals = sp._row_quadratic_forms(V, Q)  # the reference solver's scan
        int(np.flatnonzero(vals > 0)[0])
    scan_time = (time.perf_counter() - t0) / len(queries)

    iterations = math.ceil(d / config.epsilon**2)
    rows = [
        ("vector-tree", tree_time, iterations),
        ("matrix-tree", mtree_time, iterations),
        ("linear-scan", scan_time, iterations),
    ]
    report["timings"] = {"per_query_s": dict((r[0], r[1]) for r in rows)}
    report["csv"] = "variant,per_iteration_search_s,iterations\n" + "\n".join(
        f"{name},{t:.9f},{it}" for name, t, it in rows
    )
    report["tree_faster"] = bool(min(tree_time, mtree_time) < scan_time)
    report["verdict"] = "pass" if report["tree_faster"] else "fail"
    return report


def run_oracle(config: RunConfig) -> dict:
    """Agreement statistics between fast structures and exhaustive oracles."""
    report = _report_skeleton(config)
    rng = np.random.default_rng(config.seed)
    which = config.backend
    if which == "sketch":
        ens = SketchEnsemble(kind="sparse", side=8, b=32, s=4, k=4, master_seed=config.seed)
        worst = 0.0
        for sk in ens.sketches:
            R = sk.materialize()
            for _ in range(8):
                u = rng.standard_normal(8)
                v = rng.standard_normal(8)
                fast = sk.apply_pair(u, v)
                dense = R @ np.outer(u, v).ravel()
                worst = max(worst, float(np.abs(fast - dense).max()))
        report["max_abs_error"] = worst
        report["verdict"] = "pass" if worst <= 1e-9 else "fail"
        return report
    if which == "minip":
        n = 64 if config.n is None else config.n
        if n < 0:
            raise ConfigError(f"n={n} violates n >= 0")
        if n == 0:
            report["checked"] = 0
            report["verdict"] = "nothing to check"
            return report
        pts = rng.standard_normal((n, 8))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        index = RobustMinIpIndex(
            pts,
            c=config.c if config.c is not None else 0.505,
            tau=config.tau if config.tau is not None else 0.5,
            lam=config.lam,
            delta=config.delta,
            eps=0.05,
            seed=config.seed,
            config=config.minip_config(),
        )
        agreements = 0
        successes = 0
        queries = 20
        for _ in range(queries):
            q = rng.standard_normal(8)
            q /= np.linalg.norm(q)
            _, best = exact_min_ip(pts, q)
            if best > index.tau:
                continue
            hit = index.query(q, rng)
            if hit is None:
                continue
            successes += 1
            if hit[2] <= index.tau / index.c + index.lambda_tilde:
                agreements += 1
        report["successes"] = successes
        report["bound_agreement"] = agreements
        report["verdict"] = "pass" if agreements == successes else "fail"
        return report
    raise ConfigError(f"unknown oracle suite {which!r}")


COMMANDS = {
    "sparsify": run_sparsify,
    "ks": run_ks,
    "expdesign": run_expdesign,
    "bench": run_bench,
    "oracle": run_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsekit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input")
        p.add_argument("--format", choices=["matrix-market", "csv"])
        p.add_argument("--epsilon", type=float, default=0.25)
        p.add_argument("--c", type=float, dest="c")
        p.add_argument("--tau", type=float)
        p.add_argument("--lambda", type=float, dest="lam", default=0.05)
        p.add_argument("--delta", type=float, default=0.1)
        p.add_argument("--gamma", type=float, default=xd.DEFAULT_GAMMA)
        p.add_argument("--n", type=int)
        p.add_argument("--N", type=float, dest="N")
        p.add_argument("--seed", type=int)
        p.add_argument("--profile", choices=["full", "desk"], default="full")
        p.add_argument("--omega", type=float, default=3.0)
        # oracle's --backend names the suite to check
        p.add_argument("--backend", default="minip" if name == "oracle" else "exact")
        p.add_argument("--whiten", action="store_true")
        p.add_argument("--output")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(ENV_SEED, "0"))
    return RunConfig(
        command=args.command,
        input=args.input,
        format=args.format,
        epsilon=args.epsilon,
        c=args.c,
        tau=args.tau,
        lam=args.lam,
        delta=args.delta,
        gamma=args.gamma,
        n=args.n,
        N=args.N,
        seed=seed,
        profile=args.profile,
        omega=args.omega,
        backend=args.backend,
        whiten=args.whiten,
        output=args.output,
    )


def emit(report: dict, config: RunConfig) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    import warnings as _warnings

    try:
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", NumericalWarning)
            report = COMMANDS[config.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionViolation as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalWarning as exc:
        print(f"numerical warning escalated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except IterationExhausted as exc:
        print(f"iteration cap exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except SparsekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit(report, config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
