"""Alternating A/B pairs of perfbench runs, judged by the benchmark's claim rules.

    python3 scripts/ab_pairs.py --base <rev> --head <rev> --workload W \
        --pairs 10 --seconds 30 --seeds A-B [--out FILE]
    python3 scripts/ab_pairs.py --accel-vs-exact --head <rev> --workload W \
        --pairs 10 --seconds 30 --seeds A-B [--out FILE]

Run from the repository root.  Each revision is checked out with
``git worktree`` under ``.bench_build/`` (ignored), and ``perfbench/run.py``
runs from that checkout, so it measures that revision's sources.  Pair i
uses seed A + i on both sides, and the side that runs first alternates from
pair to pair.  ``--accel-vs-exact`` runs one revision once per pair and
compares, within each run, the accelerated path (as head) against the exact
one (as base).

The output is one ``pairs`` record: every run's end-to-end metrics,
``attempted`` and ``failed``, and per metric the wins, both medians, the
base's interquartile range (IQR) and a verdict.  The rules are those of
BENCHMARK.json:

    gain   head is better in at least 9 of 10 pairs (the same share of any
           count), and its median beats the base's by more than the base's IQR
    worse  head's median is worse than the base's by more than the metric's
           relative bound
    tie    neither

A run that fails to start, or whose solves fail in a larger share than the
base's, is reported beside the verdicts.  ``--out`` writes the record into a
JSON file under its "pairs" list, replacing an earlier record of the same
mode and workload.  The worktrees this run added are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
WIN_SHARE = 0.9  # the share of pairs head must win for a gain

#: accel-vs-exact mode: (head metric, base metric) within one run
ACCEL_VS_EXACT = {
    "solve_s.p50": ("accel_solve_s.p50", "exact_solve_s.p50"),
    "solve_s.tail": ("accel_solve_s.tail", "exact_solve_s.tail"),
}


def load_metrics() -> dict:
    """name -> {"better": "lower"|"higher", "bound": float} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in spec["end_to_end"]}


def parse_seeds(text: str, pairs: int) -> list[int]:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < pairs:
        raise SystemExit(f"--seeds {text} names {len(seeds)} seeds, fewer than --pairs {pairs}")
    return seeds[:pairs]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def judge(base: list, head: list, better: str, bound: float) -> dict:
    """The verdict on one metric over paired values (None where a run has none)."""
    kept = [(b, h) for b, h in zip(base, head) if b is not None and h is not None]
    if not kept:
        return {"pairs": 0, "verdict": "no data"}
    sign = 1.0 if better == "lower" else -1.0
    b_vals, h_vals = [b for b, _ in kept], [h for _, h in kept]
    wins = sum(sign * (b - h) > 0.0 for b, h in kept)
    b_med, h_med = statistics.median(b_vals), statistics.median(h_vals)
    q1, q3 = quartiles(b_vals)
    gain = sign * (b_med - h_med)  # > 0 when head's median is better
    if wins >= math.ceil(WIN_SHARE * len(kept)) and gain > q3 - q1:
        verdict = "gain"
    elif -gain > bound * abs(b_med):
        verdict = "worse"
    else:
        verdict = "tie"
    return {
        "pairs": len(kept),
        "wins": wins,
        "base_median": b_med,
        "head_median": h_med,
        "base_iqr": q3 - q1,
        "gain": gain,
        "bound": bound,
        "verdict": verdict,
    }


def summarize(runs: list, metrics: dict, accel_vs_exact: bool = False) -> dict:
    """Per-metric verdicts and failure shares over the paired runs.

    In the A/B mode each run line is {"base": line, "head": line}, a line
    being perfbench's last output line (or None when the run failed); in
    accel-vs-exact mode each is {"run": line}.
    """

    def value(line, name):
        return None if line is None else line["metrics"].get(name, {}).get("value")

    verdicts = {}
    if accel_vs_exact:
        for name, (head_name, base_name) in ACCEL_VS_EXACT.items():
            spec = metrics[base_name]
            verdicts[name] = judge(
                [value(r["run"], base_name) for r in runs],
                [value(r["run"], head_name) for r in runs],
                spec["better"],
                spec["bound"],
            )
        sides = ("run",)
    else:
        for name, spec in metrics.items():
            verdicts[name] = judge(
                [value(r["base"], name) for r in runs],
                [value(r["head"], name) for r in runs],
                spec["better"],
                spec["bound"],
            )
        sides = ("base", "head")
    shares = {}
    for side in sides:
        lines = [r[side] for r in runs]
        attempted = sum(line["attempted"] for line in lines if line)
        failed = sum(line["failed"] for line in lines if line)
        shares[side] = {
            "attempted": attempted,
            "failed": failed,
            "fail_share": failed / attempted if attempted else None,
            "runs_without_result": sum(line is None for line in lines),
        }
    summary = {
        "verdicts": verdicts,
        "failures": shares,
        "worse": sorted(n for n, v in verdicts.items() if v["verdict"] == "worse"),
        "gains": sorted(n for n, v in verdicts.items() if v["verdict"] == "gain"),
    }
    if not accel_vs_exact:
        b, h = shares["base"]["fail_share"], shares["head"]["fail_share"]
        summary["more_failures"] = b is not None and h is not None and h > b
    return summary


def resolve(rev: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def checkout(sha: str, added: list) -> Path:
    """A worktree of `sha` under .bench_build/, added unless one is there already."""
    path = BUILD / sha[:12]
    if not (path / "perfbench" / "run.py").is_file():
        BUILD.mkdir(exist_ok=True)
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(path), sha],
            capture_output=True, check=True,
        )
        added.append(path)
    return path


def perfbench(tree: Path, workload: str, seed: int, seconds: float):
    """The last stdout line of one perfbench run, parsed; None when the run failed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        cmd, cwd=tree, capture_output=True, text=True, timeout=4 * seconds + 300
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_record(path: Path, record: dict) -> None:
    doc = json.loads(path.read_text()) if path.is_file() else {}
    records = [
        r for r in doc.get("pairs", [])
        if (r["mode"], r["workload"]) != (record["mode"], record["workload"])
    ]
    doc["pairs"] = records + [record]
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="the parent revision (A/B mode)")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--accel-vs-exact", action="store_true")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seeds", required=True, help="A-B: pair i runs with seed A + i")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.accel_vs_exact == (args.base is not None):
        parser.error("give --base for A/B pairs, or --accel-vs-exact without it")
    seeds = parse_seeds(args.seeds, args.pairs)
    metrics = load_metrics()
    head = resolve(args.head)
    base = None if args.accel_vs_exact else resolve(args.base)
    added: list[Path] = []
    runs = []
    try:
        head_tree = checkout(head, added)
        base_tree = None if base is None else checkout(base, added)
        for i, seed in enumerate(seeds):
            if base_tree is None:
                run = perfbench(head_tree, args.workload, seed, args.seconds)
                runs.append({"seed": seed, "run": run})
            else:
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                tree = {"base": base_tree, "head": head_tree}
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = perfbench(tree[side], args.workload, seed, args.seconds)
                runs.append(run)
            print(f"pair {i + 1}/{len(seeds)} done (seed {seed})", file=sys.stderr)
    finally:
        for path in added:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                capture_output=True,
            )
    record = {
        "mode": "accel-vs-exact" if args.accel_vs_exact else "ab",
        "workload": args.workload,
        "base": base,
        "head": head,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "runs": runs,
        **summarize(runs, metrics, args.accel_vs_exact),
    }
    if args.out:
        write_record(args.out, record)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
