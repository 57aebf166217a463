"""The sweep scripts run end to end at their smallest sizes and print JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_sweep(name: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"sweep_{name}.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


def test_sweep_afn_builds_the_ks_afn_index():
    report = run_sweep("afn", "--n", "16", "--repeats", "1")
    assert report["settings"]["delta"] == 0.1
    [size] = report["sizes"]
    assert size["n"] == 16 and "refused" not in size
    assert size["structures"] == 440
    assert size["build_s"] > 0.0
    assert set(size["phases_s"]) == {
        "sketch", "directions", "projection", "sort", "other", "traced_total"
    }


def test_sweep_aipe_times_every_phase():
    report = run_sweep("aipe", "--m", "16", "--d", "4", "--repeats", "1")
    [size] = report["sizes"]
    assert (size["m"], size["d"]) == (16, 4)
    for key in ("build_s", "query_cold_s", "query_warm_s", "scan_s"):
        assert size[key] > 0.0


def test_sweep_sparsify_keeps_the_barrier():
    report = run_sweep("sparsify", "--m", "64", "--d", "4", "--repeats", "1")
    [size] = report["sizes"]
    assert (size["m"], size["d"]) == (64, 4)
    assert size["barrier_contained"] is True
    assert size["fast_s"] > 0.0 and size["reference_s"] > 0.0
