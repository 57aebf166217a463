"""The sweep and replay scripts run end to end at their smallest sizes and print JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
            "sketch", "directions", "keys", "inserts", "other", "traced_total"
        }
    # the eager build draws no directions; a battery draws, projects and sorts
    assert phases["build"]["directions"] == 0.0 and phases["build"]["sketch"] > 0.0
    assert phases["battery"]["directions"] > 0.0 and phases["battery"]["keys"] > 0.0
    assert phases["insert"]["inserts"] > 0.0 and phases["insert"]["keys"] == 0.0


def test_replay_afn_hashes_both_solvers():
    report = run_script("replay_afn", "--ks", "1", "--swap", "1")
    assert (report["ks_solves"], report["swap_solves"]) == (1, 1)
    assert len(report["sha256"]) == 64 and int(report["sha256"], 16) >= 0
    assert report["ks_s"] > 0.0 and report["swap_s"] > 0.0
    again = run_script("replay_afn", "--ks", "1", "--swap", "0")
    assert again["sha256"] != report["sha256"]


def test_sweep_aipe_times_every_phase():
    report = run_script("sweep_aipe", "--m", "16", "--d", "4", "--repeats", "1")
    [size] = report["sizes"]
    assert (size["m"], size["d"]) == (16, 4)
    for key in ("build_s", "query_cold_s", "query_warm_s", "scan_s"):
        assert size[key] > 0.0


def test_sweep_sparsify_keeps_the_barrier():
    report = run_script("sweep_sparsify", "--m", "64", "--d", "4", "--repeats", "1")
    [size] = report["sizes"]
    assert (size["m"], size["d"]) == (64, 4)
    assert size["barrier_contained"] is True
    assert size["fast_s"] > 0.0 and size["reference_s"] > 0.0
