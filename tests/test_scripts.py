"""The sweep and replay scripts run end to end at their smallest sizes and print JSON."""

import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import random_ks_family
from test_solvers_golden import rare_direction_rows

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


def test_sweep_afn_builds_the_ks_afn_index():
    report = run_script("sweep_afn", "--n", "16", "--repeats", "1")
    assert report["settings"]["delta"] == 0.1
    [size] = report["sizes"]
    assert size["n"] == 16 and "refused" not in size
    assert size["structures"] == 440
    assert size["kappa"] == 44
    for key in ("build_s", "battery_s", "insert_s"):
        assert size[key] > 0.0
    phases = size["phases_s"]
    assert set(phases) == {"build", "battery", "insert"}
    for stage in phases.values():
        assert set(stage) == {
            "sketch", "seeds", "directions", "keys", "inserts", "other", "traced_total"
        }
    # the eager build keys and draws no directions; a battery keys, draws,
    # projects and sorts
    assert phases["build"]["seeds"] == phases["build"]["directions"] == 0.0
    assert phases["build"]["sketch"] > 0.0
    assert phases["battery"]["seeds"] > 0.0 and phases["battery"]["directions"] > 0.0
    assert phases["battery"]["keys"] > 0.0
    assert phases["insert"]["inserts"] > 0.0 and phases["insert"]["keys"] == 0.0


def test_replay_afn_hashes_both_solvers():
    report = run_script(
        "replay_afn", "--ks", "1", "--swap", "1", "--sparsify", "0", "--aipe", "0", "--exact", "0"
    )
    assert (report["ks_solves"], report["swap_solves"]) == (1, 1)
    assert len(report["sha256"]) == 64 and int(report["sha256"], 16) >= 0
    assert report["ks_s"] > 0.0 and report["swap_s"] > 0.0
    again = run_script(
        "replay_afn", "--ks", "1", "--swap", "0", "--sparsify", "0", "--aipe", "0", "--exact", "0"
    )
    assert again["sha256"] != report["sha256"]


def test_replay_afn_hashes_sparsify_apart():
    empty = hashlib.sha256().hexdigest()
    # input 0 is a dense family, input 1 a sparse one
    report = run_script(
        "replay_afn", "--ks", "0", "--swap", "0", "--sparsify", "2", "--aipe", "0", "--exact", "0"
    )
    assert report["sparsify_inputs"] == 2 and report["sparsify_s"] > 0.0
    assert report["sha256"] == empty
    assert len(report["sparsify_sha256"]) == 64 and report["sparsify_sha256"] != empty
    dense_only = run_script(
        "replay_afn", "--ks", "0", "--swap", "0", "--sparsify", "1", "--aipe", "0", "--exact", "0"
    )
    assert dense_only["sparsify_sha256"] not in (empty, report["sparsify_sha256"])


def test_replay_afn_hashes_aipe_apart():
    empty = hashlib.sha256().hexdigest()
    # solve 0 is a swap rounding, solve 1 a KS selection
    report = run_script(
        "replay_afn", "--ks", "0", "--swap", "0", "--sparsify", "0", "--aipe", "2", "--exact", "0"
    )
    assert report["aipe_solves"] == 2 and report["aipe_s"] > 0.0
    assert report["sha256"] == empty and report["sparsify_sha256"] == empty
    assert len(report["aipe_sha256"]) == 64 and report["aipe_sha256"] != empty
    swap_only = run_script(
        "replay_afn", "--ks", "0", "--swap", "0", "--sparsify", "0", "--aipe", "1", "--exact", "0"
    )
    assert swap_only["aipe_sha256"] not in (empty, report["aipe_sha256"])


def test_replay_afn_hashes_exact_apart():
    empty = hashlib.sha256().hexdigest()
    # solve 0 is a swap rounding, solve 1 a KS selection, both on the exact backend
    quiet = ("--ks", "0", "--swap", "0", "--sparsify", "0", "--aipe", "0")
    report = run_script("replay_afn", *quiet, "--exact", "2")
    assert report["exact_solves"] == 2 and report["exact_s"] > 0.0
    assert report["sha256"] == report["sparsify_sha256"] == report["aipe_sha256"] == empty
    assert len(report["exact_sha256"]) == 64 and report["exact_sha256"] != empty
    swap_only = run_script("replay_afn", *quiet, "--exact", "1")
    assert swap_only["exact_sha256"] not in (empty, report["exact_sha256"])


def test_replay_afn_keeps_its_recorded_hashes():
    # a few solves of every part, each part with updates to its stores
    # (retires and inserts); a change of any output bit moves a hash
    report = run_script(
        "replay_afn", "--ks", "8", "--swap", "3", "--sparsify", "2", "--aipe", "4", "--exact", "4"
    )
    assert {key: report[key] for key in REPLAY_HASHES} == REPLAY_HASHES
    # the bits depend on numpy's SIMD target for float64 power (see test_solvers_golden)
    assert report["numpy"] and report["power_dispatch"]


#: replay_afn.py's hashes at the counts above; a change that means to move
#: outputs re-records them and says why
REPLAY_HASHES = {
    "sha256": "28773df4284577bdb6285a92ef34ffd4796d365ba88e3e9a16146459785379a0",
    "sparsify_sha256": "8acbbee3f04e20dfe008de0d78a79a17c5c7b5da8714a3a182d1cc19a8bb8530",
    "aipe_sha256": "16c3749f5cc93989a7a9ad30c716d30f9cca1b06ac31f06d7e9d0c28f0c5ce80",
    "exact_sha256": "08a10313147c0c4e353a4bda70a76915482c3160aba116a1ca018778827b7996",
}


def test_sweep_aipe_times_every_phase():
    report = run_script("sweep_aipe", "--m", "16", "--d", "4", "--repeats", "1")
    [size] = report["sizes"]
    assert (size["m"], size["d"]) == (16, 4)
    for key in ("build_s", "query_cold_s", "query_warm_s", "scan_s"):
        assert size[key] > 0.0
    for key in ("pool", "samples"):
        assert isinstance(size[key], int) and size[key] > 0
    assert size["samples"] <= size["pool"]
    # a cold query draws its factors; a warm one reuses them
    assert size["query_cold_peak_mb"] >= size["query_warm_peak_mb"] > 0.0


def test_sweep_swap_times_every_phase():
    # seed 1's random start misses a rare direction, so the solve swaps
    report = run_script("sweep_swap", "--d", "4", "--repeats", "1", "--runs", "1", "--seed", "1")
    [size] = report["sizes"]
    assert (size["d"], size["n"], size["m"]) == (4, 772, 3088)
    assert size["swaps"] >= 1 and size["solve_s"] > 0.0
    phases = size["phases_s"]
    named = {
        "eigendecompose", "find_ct", "a_t", "z_update", "row_forms", "removal_scan",
        "addition_scan", "checks",
    }
    assert set(phases) == named | {"other", "traced_total"}
    assert all(phases[key] > 0.0 for key in named)
    # other is the rest of the traced total, so the phases sum to it
    total = sum(phases[key] for key in named | {"other"})
    assert total == pytest.approx(phases["traced_total"], abs=1e-5)
    assert 0.0 < size["named_frac"] <= 1.0


def test_sweep_sparsify_keeps_the_barrier():
    report = run_script("sweep_sparsify", "--m", "64", "--d", "4", "--repeats", "1")
    [size] = report["sizes"]
    assert (size["m"], size["d"]) == (64, 4)
    assert size["barrier_contained"] is True
    assert size["fast_s"] > 0.0 and size["reference_s"] > 0.0
    assert size["fast_rows_per_iteration"] == 0.0
    # the first chunk holds all 64 rows
    assert size["reference_rows_per_iteration"] == 64.0


@pytest.fixture(scope="module")
def sweeplib():
    spec = importlib.util.spec_from_file_location("sweeplib", ROOT / "scripts" / "sweeplib.py")
    module = importlib.util.module_from_spec(spec)
    # its import pins BLAS threads and reaches perfbench's tracer: undo both here
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(module)
    return module


class Stub:
    def outer(self):
        time.sleep(0.005)
        return self.inner()

    def inner(self):
        time.sleep(0.05)
        return "done"

    def unused(self):
        raise AssertionError("never called")

    def fail(self):
        raise ValueError("raised inside the traced call")


def test_phase_times_reads_self_time(sweeplib):
    sites = [("outer", Stub, "outer"), ("inner", Stub, "inner"), ("idle", Stub, "unused")]
    phases = sweeplib.phase_times(sites, lambda: Stub().outer())
    assert list(phases) == ["outer", "inner", "idle", "other", "traced_total"]
    # the inner call's 50 ms are the inner phase's, not the outer's
    assert 0.005 <= phases["outer"] < 0.05 <= phases["inner"]
    assert phases["idle"] == 0.0
    parts = phases["outer"] + phases["inner"] + phases["idle"] + phases["other"]
    assert parts == pytest.approx(phases["traced_total"], abs=1e-12)


def test_phase_times_restores_the_originals_after_a_raise(sweeplib):
    originals = dict(vars(Stub))
    sites = [("inner", Stub, "inner"), ("fail", Stub, "fail")]
    with pytest.raises(ValueError):
        sweeplib.phase_times(sites, lambda: Stub().fail())
    assert vars(Stub)["inner"] is originals["inner"] and vars(Stub)["fail"] is originals["fail"]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("d, N", [(2, 8), (3, 6), (4, 3)])
def test_ks_frames_are_the_golden_families(sweeplib, seed, d, N):
    expected = random_ks_family(d, N, np.random.default_rng(seed)).vectors
    assert np.array_equal(sweeplib.ks_frames(d, N, seed), expected)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("m, d", [(310, 2), (3088, 4), (40, 5)])
def test_rare_direction_rows_are_the_golden_rows(sweeplib, seed, m, d):
    assert np.array_equal(sweeplib.rare_direction_rows(seed, m, d), rare_direction_rows(seed, m, d))


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "scripts" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the last line of a recorded perfbench run (ks-afn, 1 s)
RUN_LINE = json.loads(
    '{"correct": true, "attempted": 1413, "failed": 0, "metrics": {'
    '"setup_s": {"value": 0.5169960831251396, "unit": "s"}, '
    '"accel_solve_s.p50": {"value": 0.01855979089616327, "unit": "s"}, '
    '"accel_solve_s.tail": {"value": 0.01855979089616327, "unit": "s"}, '
    '"exact_solve_s.p50": {"value": 0.0006724731085060283, "unit": "s"}, '
    '"exact_solve_s.tail": {"value": 0.0006724731085060283, "unit": "s"}, '
    '"peak_rss_mb": {"value": 60.4765625, "unit": "MB"}, '
    '"accel_quality": {"value": 0.44365081389595445, "unit": "ratio"}}}'
)


def line_with(values: dict) -> dict:
    """RUN_LINE with the named metrics set to these values."""
    line = json.loads(json.dumps(RUN_LINE))
    for name, value in values.items():
        line["metrics"][name]["value"] = value
    return line


def ab_summary(base_p50, head_p50):
    ab = load_ab_pairs()
    runs = [
        {"base": line_with({"exact_solve_s.p50": b}), "head": line_with({"exact_solve_s.p50": h})}
        for b, h in zip(base_p50, head_p50)
    ]
    return ab.summarize(runs, ab.load_metrics())


BASE_P50 = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045


def test_ab_pairs_gain_needs_nine_of_ten_pairs():
    head = [b - 0.1 for b in BASE_P50]
    head[3] = BASE_P50[3] + 0.01  # one pair lost: 9 of 10
    nine = ab_summary(BASE_P50, head)["verdicts"]["exact_solve_s.p50"]
    assert (nine["wins"], nine["verdict"]) == (9, "gain")
    head[5] = BASE_P50[5]  # an equal pair is no win: 8 of 10
    eight = ab_summary(BASE_P50, head)["verdicts"]["exact_solve_s.p50"]
    assert (eight["wins"], eight["verdict"]) == (8, "tie")


def test_ab_pairs_gain_needs_a_median_gap_above_the_base_iqr():
    wide = ab_summary(BASE_P50, [b - 0.05 for b in BASE_P50])["verdicts"]["exact_solve_s.p50"]
    assert wide["base_iqr"] == pytest.approx(0.045)
    assert (wide["wins"], wide["verdict"]) == (10, "gain")
    narrow = ab_summary(BASE_P50, [b - 0.04 for b in BASE_P50])["verdicts"]["exact_solve_s.p50"]
    assert (narrow["wins"], narrow["verdict"]) == (10, "tie")


def test_ab_pairs_reads_a_tie_and_a_bound_overrun():
    tie = ab_summary(BASE_P50, BASE_P50)
    assert all(v["verdict"] == "tie" and v["wins"] == 0 for v in tie["verdicts"].values())
    assert tie["worse"] == tie["gains"] == [] and tie["more_failures"] is False
    # the p50 bound is 0.25: a head 30% slower in every pair is worse
    worse = ab_summary(BASE_P50, [1.3 * b for b in BASE_P50])
    assert worse["worse"] == ["exact_solve_s.p50"]


def test_ab_pairs_accel_vs_exact_compares_within_each_run():
    ab = load_ab_pairs()
    runs = [
        {"run": line_with({"accel_solve_s.p50": 0.5 * b, "exact_solve_s.p50": b})} for b in BASE_P50
    ]
    summary = ab.summarize(runs, ab.load_metrics(), accel_vs_exact=True)
    p50 = summary["verdicts"]["solve_s.p50"]
    assert (p50["wins"], p50["verdict"]) == (10, "gain")
    assert p50["base_median"] == statistics.median(BASE_P50)
    assert summary["failures"]["run"]["attempted"] == 10 * RUN_LINE["attempted"]
