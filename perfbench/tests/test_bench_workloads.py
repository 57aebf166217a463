import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from sparsekit import io, sparsifier
from workloads import WORKLOADS, Instance

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def make(name, tmp_path, seed=11):
    wl = WORKLOADS[name]
    path = str(tmp_path / f"{name}.mtx")
    wl.generate(np.random.default_rng(seed), path)
    return wl, path


def gram_error(X, pi=None):
    pi = np.ones(len(X)) if pi is None else pi
    return float(np.linalg.norm(X.T @ (pi[:, None] * X) - np.eye(X.shape[1])))


@pytest.mark.parametrize("name", ["sparsify-dense", "sparsify-sparse", "ks-afn"])
def test_set_up_family_is_isotropic(name, tmp_path):
    wl, path = make(name, tmp_path)
    (family,) = wl.setup([path])
    assert gram_error(family.vectors) <= 1e-6


def test_expdesign_family_is_pi_isotropic_and_starts_singular(tmp_path):
    wl, path = make("expdesign-aipe", tmp_path)
    (family,) = wl.setup([path])
    assert family.vectors.shape == (wl.m, wl.d)
    assert gram_error(family.vectors, wl.pi()) <= 1e-6
    out = wl.solve(Instance(family, seed=5), "exact")
    assert out.lambda_trace[0] < wl.target()
    assert out.swaps >= 1


def test_sparse_input_keeps_two_nonzeros_per_row_through_io(tmp_path):
    wl, path = make("sparsify-sparse", tmp_path)
    assert "coordinate" in Path(path).read_text().splitlines()[0]
    family = io.parse_matrix_file(path)
    assert family.vectors.shape == (wl.angles * wl.d // 2, wl.d)
    assert np.all(family.nnz_per_row == 2)
    assert np.all(np.count_nonzero(family.vectors, axis=1) == 2)
    assert sparsifier.choose_tree(family) == "matrix"


def test_ks_family_keeps_norms_through_io(tmp_path):
    wl, path = make("ks-afn", tmp_path)
    family = io.parse_matrix_file(path)
    assert family.vectors.shape == (wl.d * wl.N, wl.d)
    norms = np.linalg.norm(family.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0 / math.sqrt(wl.N)) <= 1e-9)


def test_sparsify_oracle_is_scale_free_and_records_verify(tmp_path):
    wl, path = make("sparsify-sparse", tmp_path)
    (family,) = wl.setup([path])
    inst = Instance(family, seed=0)
    for solve_path in ("accel", "exact"):
        selection, A, trace = wl.solve(inst, solve_path)
        verdict = wl.check(inst, solve_path, (selection, A, trace))
        assert verdict.ok
        assert "verify_passed" in verdict.facts
        assert verdict.facts["kappa"] < wl.kappa_bound(wl.d, solve_path)
        # piling weight onto one row breaks the barrier invariant
        selection.weights[0] *= 1e3
        assert not wl.check(inst, solve_path, (selection, A, trace)).ok


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    wl = WORKLOADS[name]
    texts = []
    for k, seed in enumerate((3, 3, 4)):
        path = tmp_path / f"{k}.mtx"
        wl.generate(np.random.default_rng(seed), str(path))
        texts.append(path.read_text())
    assert texts[0] == texts[1] != texts[2]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert sorted(run.NAMES) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 101)))[1:] == ("p90", 10)
    assert run.tail(list(range(1, 41)))[1:] == ("p75", 10)
    assert run.tail(list(range(1, 9)))[1:] == ("p75", 2)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_result_object(trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "sparsify-sparse",
           "--seed", "1", "--seconds", "1", "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    names = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == names
    assert result["attempted"] >= 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ks-afn", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
