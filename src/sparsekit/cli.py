"""Command-line front end for the three solvers: sparsify, ks and expdesign.

Each command accepts only the flags its runner reads (see ``FLAGS``);
argparse rejects any other flag, and any other command, with exit code 2.
The input's file name decides its format: Matrix Market for a .mtx or
.mtx.gz name, CSV for any other.  ks reads N off its input: m isotropic rows
of squared norm 1/N in R^d sum to I, so m/N = trace I = d and N = m/d.
Reports are JSON.  A report's "config" block holds exactly the command's
flags, unset ones as null.  --seed defaults to 0; a negative seed is a
config error, and so is an --output that is a directory or lies in no
existing directory, refused before any solve.  Reports are replayable: two
runs with the same flags and seed produce byte-identical reports once the
"timings" block is removed.  Both Min-IP backends, aipe and afn, have one
size, read from afn.SCALE.  Exit codes distinguish the error classes:

    0 success          3 precondition violation
    2 config error     4 numerical-warning escalation
    1 other error      5 iteration cap exhausted
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from . import expdesign as xd
from . import kadison_singer as ks
from . import sparsifier as sp
from .errors import (
    ConfigError,
    IterationExhausted,
    NumericalWarning,
    PreconditionViolation,
    SingularGram,
    SparsekitError,
)
from .io import parse_matrix_file
from .linalg import VectorFamily, whiten

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_EXHAUSTED = 5

#: the flags each command's runner reads; argparse refuses all others
FLAGS = {
    "sparsify": ("input", "epsilon", "whiten", "output"),
    "ks": ("input", "whiten", "n", "backend", "c", "tau", "seed", "output"),
    "expdesign": (
        "input", "whiten", "n", "epsilon", "gamma",
        "c", "tau", "backend", "seed", "output",
    ),
}

ARGUMENTS = {
    "input": {},
    "epsilon": {"type": float, "default": 0.25},
    "whiten": {"action": "store_true"},
    "n": {"type": int},
    "backend": {"default": "exact"},
    "c": {"type": float},
    "tau": {"type": float},
    "gamma": {"type": float, "default": xd.DEFAULT_GAMMA},
    "seed": {"type": int, "default": 0},
    "output": {},
}

# expdesign's epsilon is the benchmark's: at gamma=4 the default 0.25 would
# make its verdict threshold 1 - gamma*epsilon exactly 0
COMMAND_DEFAULTS = {"expdesign": {"epsilon": 0.2, "c": xd.DEFAULT_C}}


def _report_skeleton(config: argparse.Namespace) -> dict:
    return {
        "command": config.command,
        "config": {flag: getattr(config, flag) for flag in FLAGS[config.command]},
        "timings": {},
    }


def _load_family(config: argparse.Namespace) -> VectorFamily:
    if config.input is None:
        raise ConfigError("--input is required for this command")
    family = parse_matrix_file(config.input)
    if config.whiten:
        family = whiten(family)
    return family


def run_sparsify(config: argparse.Namespace) -> dict:
    report = _report_skeleton(config)
    family = _load_family(config)
    # the fast variant first: its tree build refuses an oversize family before any solve
    t0 = time.perf_counter()
    sel_fast, A_fast, trace_fast = sp.sparsify_fast(family, config.epsilon)
    t1 = time.perf_counter()
    sel_ref, A_ref, trace_ref = sp.bss_reference(family, config.epsilon)
    t2 = time.perf_counter()
    verdict_ref = sp.verify_sparsifier(family, sel_ref, config.epsilon)
    verdict_fast = sp.verify_sparsifier(family, sel_fast, config.epsilon)
    report["timings"] = {"reference_s": t2 - t1, "fast_s": t1 - t0}
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


def run_ks(config: argparse.Namespace) -> dict:
    """Select --n rows of the input, with N = m/d, the one N its norms and isotropy admit."""
    report = _report_skeleton(config)
    if config.n is None:
        raise ConfigError("--n is required for ks")
    family = _load_family(config)
    t0 = time.perf_counter()
    result = ks.ks_select(
        family,
        family.count / family.dim,
        config.n,
        backend=config.backend,
        c=config.c,
        tau=config.tau,
        seed=config.seed,
    )
    report["timings"] = {"select_s": time.perf_counter() - t0}
    bound = result.beta * result.barrier_sequence[-1]  # a_n, or a_n/c on aipe and afn
    report["result"] = result.as_dict()
    report["bound"] = bound
    report["verdict"] = "pass" if result.final_norm <= bound else "fail"
    return report


def run_expdesign(config: argparse.Namespace) -> dict:
    report = _report_skeleton(config)
    if config.input is None:
        raise ConfigError("--input is required for this command")
    if config.n is None:
        raise ConfigError("--n is required for expdesign")
    if config.n < 1:
        raise ConfigError(f"n={config.n} violates n >= 1")
    family = parse_matrix_file(config.input)
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
        c=config.c,
        tau=config.tau,
        backend=config.backend,
        seed=config.seed,
    )
    report["timings"] = {"swap_s": time.perf_counter() - t0}
    report["result"] = result.as_dict()
    threshold = 1.0 - config.gamma * config.epsilon
    report["threshold"] = threshold
    cleared = xd.clears(result.lambda_min, result.lambda_max, threshold)
    report["verdict"] = "pass" if cleared else "fail"
    return report


COMMANDS = {
    "sparsify": run_sparsify,
    "ks": run_ks,
    "expdesign": run_expdesign,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsekit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(f"--{flag}", **ARGUMENTS[flag])
        p.set_defaults(**COMMAND_DEFAULTS.get(name, {}))
    return parser


def config_from_args(config: argparse.Namespace) -> argparse.Namespace:
    """The parsed flags, exactly the names in FLAGS[command].

    An --output the report could not be written to is refused here, before any solve.
    """
    if config.output and os.path.isdir(config.output):
        raise ConfigError(f"--output {config.output} is a directory")
    if config.output and not os.path.isdir(os.path.dirname(config.output) or "."):
        raise ConfigError(f"--output {config.output} lies in no existing directory")
    return config


def emit(report: dict, config: argparse.Namespace) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if config.output:
        try:
            with open(config.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write --output {config.output}: {exc}") from None
    else:
        print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            report = COMMANDS[config.command](config)
        emit(report, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionViolation, SingularGram) as exc:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
