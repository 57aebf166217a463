"""The command line: exit codes of the error taxonomy, and replayable reports."""

import json
import time

import numpy as np

from sparsekit import cli
from sparsekit.io import write_matrix_file
from sparsekit.linalg import VectorFamily, whiten
from sparsekit.minip import exact_min_ip

from conftest import random_isotropic_family, random_ks_family


def test_sparsify_epsilon_out_of_range_is_config_error(tmp_path, rng, capsys):
    path = str(tmp_path / "family.mtx")
    write_matrix_file(path, random_isotropic_family(20, 3, rng).vectors)
    assert cli.main(["sparsify", "--input", path, "--epsilon", "2"]) == cli.EXIT_CONFIG
    assert "epsilon=2.0 violates 0 < epsilon < 1" in capsys.readouterr().err


def test_expdesign_infeasible_gamma_and_c_is_config_error(tmp_path, rng, capsys):
    # gamma=3, c=0.5 can never meet c > 2/(gamma-1) = 1
    path = str(tmp_path / "design.mtx")
    write_matrix_file(path, rng.standard_normal((40, 3)))
    argv = ["expdesign", "--input", path, "--n", "20", "--whiten", "--gamma", "3", "--c", "0.5"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "c > 2/(gamma-1)" in capsys.readouterr().err


def test_expdesign_defaults_run_on_feasible_input(tmp_path, rng):
    # n >= 6d/eps^2/(gamma-1-2/c) = 246.9 at d=2 and the defaults eps=0.25, gamma=4, c=0.9
    m, n = 500, 250
    pi = np.full(m, n / m)
    path = str(tmp_path / "design.mtx")
    write_matrix_file(path, whiten(VectorFamily(rng.standard_normal((m, 2))), pi).vectors)
    out = tmp_path / "report.json"
    assert cli.main(["expdesign", "--input", path, "--n", str(n), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["gamma"] == 4.0 and report["verdict"] == "pass"
    assert report["result"]["selection"]["support_size"] == n


def test_ks_aipe_replay_identical_apart_from_timings(tmp_path, rng):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--N", "8", "--n", "8", "--backend", "aipe"]
    out = tmp_path / "report.json"
    argv += ["--c", "0.505", "--tau", "0.5", "--profile", "desk", "--seed", "3"]
    argv += ["--output", str(out)]  # the report's config records this path
    texts = []
    for _ in range(2):
        assert cli.main(argv) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "pass"
        del report["timings"]
        texts.append(json.dumps(report, indent=2, sort_keys=True))
    assert texts[0] == texts[1]


class ExactMinIpIndex:
    """Stands in for RobustMinIpIndex: answers every query by an exact scan."""

    def __init__(self, points, c, tau, lam, delta, eps, seed, config):
        self.points, self.c, self.tau, self.lambda_tilde = points, c, tau, 0.0

    def query(self, q, rng):
        i, ip = exact_min_ip(self.points, q)
        return i, self.points[i], ip


def test_oracle_without_backend_runs_the_minip_suite(tmp_path, monkeypatch):
    # the real index takes minutes to build even at n=2, so a scan stands in
    monkeypatch.setattr(cli, "RobustMinIpIndex", ExactMinIpIndex)
    out = tmp_path / "report.json"
    assert cli.main(["oracle", "--n", "16", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["backend"] == "minip"
    assert report["successes"] > 0 and report["verdict"] == "pass"


def test_oracle_desk_profile_refuses_too_many_structures(capsys):
    # n=2, eps=0.05: b=4794 sketch rows, so 8 sketches x kappa=17339 replicas
    start = time.perf_counter()
    assert cli.main(["oracle", "--profile", "desk", "--n", "2"]) == cli.EXIT_CONFIG
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "k=8 sketches x kappa=17339 replicas = 138712 AFN structures" in err


def test_ks_afn_full_profile_refuses_too_many_structures(tmp_path, rng, capsys):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--N", "8", "--n", "8", "--backend", "afn"]
    assert cli.main(argv + ["--c", "0.505", "--tau", "0.5"]) == cli.EXIT_CONFIG
    assert "AFN structures exceeds the limit of 10000" in capsys.readouterr().err


def test_oracle_n_zero_checks_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "RobustMinIpIndex", None)  # must not be built
    out = tmp_path / "report.json"
    assert cli.main(["oracle", "--n", "0", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checked"] == 0 and report["verdict"] == "nothing to check"


def test_oracle_negative_n_is_config_error(capsys):
    assert cli.main(["oracle", "--n", "-1"]) == cli.EXIT_CONFIG
    assert "n=-1 violates n >= 0" in capsys.readouterr().err


def test_oracle_unknown_suite_is_config_error(capsys):
    assert cli.main(["oracle", "--backend", "exact"]) == cli.EXIT_CONFIG
    assert "unknown oracle suite 'exact'" in capsys.readouterr().err


def test_sparsify_non_finite_input_is_precondition_violation(tmp_path, capsys):
    path = tmp_path / "family.csv"
    path.write_text("1,0\n0,nan\n")
    assert cli.main(["sparsify", "--input", str(path)]) == cli.EXIT_PRECONDITION
    assert "non-finite" in capsys.readouterr().err
