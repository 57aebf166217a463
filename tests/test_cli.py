"""The command line: exit codes of the error taxonomy, and replayable reports."""

import json

import numpy as np
import pytest

from sparsekit import cli, minip
from sparsekit.errors import ConfigError
from sparsekit.io import write_matrix_file
from sparsekit.kadison_singer import ks_select
from sparsekit.linalg import VectorFamily, whiten

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
    # n >= 6d/eps^2/(gamma-1-2/c) = 385.7 at d=2 and the defaults eps=0.2, gamma=4, c=0.9
    m, n = 800, 400
    pi = np.full(m, n / m)
    path = str(tmp_path / "design.mtx")
    write_matrix_file(path, whiten(VectorFamily(rng.standard_normal((m, 2))), pi).vectors)
    out = tmp_path / "report.json"
    assert cli.main(["expdesign", "--input", path, "--n", str(n), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["gamma"] == 4.0 and report["verdict"] == "pass"
    assert report["threshold"] > 0  # 1 - gamma*eps = 0.2: more than nonsingularity
    assert report["result"]["selection"]["support_size"] == n


def test_ks_aipe_replay_identical_apart_from_timings(tmp_path, rng):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--N", "8", "--n", "8", "--backend", "aipe"]
    out = tmp_path / "report.json"
    argv += ["--c", "0.505", "--tau", "0.5", "--seed", "3"]
    argv += ["--output", str(out)]  # the report's config records this path
    texts = []
    for _ in range(2):
        assert cli.main(argv) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "pass"
        del report["timings"]
        texts.append(json.dumps(report, indent=2, sort_keys=True))
    assert texts[0] == texts[1]


def test_ks_afn_refuses_too_many_structures_before_building_one(
    tmp_path, rng, capsys, monkeypatch
):
    # m=24 points of dimension D=146: k=303 sketches x kappa=45 replicas = 13,635
    def no_build(*args, **kwargs):
        raise AssertionError("an AFN structure was built")

    monkeypatch.setattr(minip, "AfnStructure", no_build)
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(12, 2, rng).vectors)
    argv = ["ks", "--input", path, "--N", "2", "--n", "12", "--backend", "afn"]
    assert cli.main(argv + ["--c", "0.505", "--tau", "0.5"]) == cli.EXIT_CONFIG
    assert "AFN structures exceeds the limit of 10000" in capsys.readouterr().err


def test_ks_afn_runs_without_profile(tmp_path, rng):
    # the one Min-IP index size keeps k*kappa under the structure limit
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--N", "8", "--n", "8", "--backend", "afn"]
    out = tmp_path / "report.json"
    argv += ["--c", "0.505", "--tau", "0.5", "--seed", "3", "--output", str(out)]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["result"]["backend"] == "afn"


@pytest.mark.parametrize(
    "argv",
    [
        ["ks", "--N", "0", "--n", "8"],
        ["ks", "--N", "-1", "--n", "8"],
        ["ks", "--N", "1", "--n", "8"],
        ["ks", "--N", "nan", "--n", "8"],
        ["expdesign", "--n", "0", "--whiten"],
        ["expdesign", "--n", "-3", "--whiten"],
        ["expdesign", "--n", "8", "--whiten", "--gamma", "2"],
        ["expdesign", "--n", "8", "--whiten", "--epsilon", "0.3"],
        ["expdesign", "--n", "10", "--whiten"],
        ["expdesign", "--n", "900", "--whiten"],
    ],
    ids=[
        "ks-N0", "ks-N-1", "ks-N1", "ks-Nnan", "expdesign-n0", "expdesign-n-3",
        "expdesign-gamma2", "expdesign-eps0.3", "expdesign-n-below-floor", "expdesign-n-above-m",
    ],
)
def test_bad_sizes_are_config_errors(tmp_path, rng, capsys, argv):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    assert cli.main(argv + ["--input", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("c, tau", [("0", "-0.02"), ("0.5", "-0.5")])
def test_ks_aipe_refuses_nonpositive_tau_or_c(tmp_path, rng, capsys, c, tau):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--N", "8", "--n", "8", "--backend", "aipe"]
    argv += ["--c", c, "--tau", tau]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "violates 0 < tau < 1" in capsys.readouterr().err


def test_ks_afn_refuses_n_out_of_range_before_building_the_index(rng, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the Min-IP index was built")

    monkeypatch.setattr(minip.RobustMinIpIndex, "__init__", no_build)
    family = random_ks_family(2, 8, rng)
    for n in (family.count, family.count + 1, -1):
        with pytest.raises(ConfigError, match="violates 0 <= n < m=16"):
            ks_select(family, 8, n, backend="afn", c=0.505, tau=0.5)


def test_sparsify_non_finite_input_is_precondition_violation(tmp_path, capsys):
    path = tmp_path / "family.csv"
    path.write_text("1,0\n0,nan\n")
    assert cli.main(["sparsify", "--input", str(path)]) == cli.EXIT_PRECONDITION
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sparsify"], ["expdesign", "--n", "1"]], ids=["sparsify", "expdesign"]
)
def test_zero_column_input_is_precondition_violation(tmp_path, capsys, argv):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 0\n")
    assert cli.main(argv + ["--input", str(path)]) == cli.EXIT_PRECONDITION
    assert "vector family of shape (2, 0) is empty" in capsys.readouterr().err


def test_whiten_of_a_rank_deficient_input_is_precondition_violation(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("1,0\n2,0\n3,0\n")
    assert cli.main(["sparsify", "--input", str(path), "--whiten"]) == cli.EXIT_PRECONDITION
    assert "numerically singular" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["absent.csv", ""], ids=["missing-file", "directory"])
def test_unreadable_csv_input_is_precondition_violation(tmp_path, capsys, name):
    path = str(tmp_path / name)  # "" names the directory itself
    assert cli.main(["sparsify", "--input", path]) == cli.EXIT_PRECONDITION
    assert f"cannot parse {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sparsify", "--N", "3"],
        ["ks", "--gamma", "5"],
        ["expdesign", "--delta", "0.5"],
        ["sparsify", "--omega", "3"],
        ["ks", "--lambda", "0.05"],
        ["bench"],
        ["oracle"],
        ["ks", "--delta", "0.1"],
        ["ks", "--profile", "desk"],
        ["expdesign", "--profile", "full"],
    ],
)
def test_flag_the_command_does_not_read_or_unknown_command_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG


COMMAND_FLAGS = {
    "sparsify": {"input", "format", "epsilon", "whiten", "output"},
    "ks": {
        "input", "format", "whiten", "N", "n", "backend",
        "c", "tau", "seed", "output",
    },
    "expdesign": {
        "input", "format", "whiten", "n", "epsilon", "gamma",
        "c", "tau", "backend", "seed", "output",
    },
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_report_config_holds_exactly_the_command_flags(command, tmp_path, rng, monkeypatch):
    monkeypatch.setenv(cli.ENV_SEED, "7")
    path = str(tmp_path / "input.mtx")
    if command == "sparsify":
        write_matrix_file(path, random_isotropic_family(20, 3, rng).vectors)
        argv = [command, "--input", path]
    elif command == "ks":
        write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
        argv = [command, "--input", path, "--N", "8", "--n", "8"]
    else:
        m, n = 500, 250  # n >= 246.9, the floor at d=2, eps=0.25, gamma=4, c=0.9
        pi = np.full(m, n / m)
        write_matrix_file(path, whiten(VectorFamily(rng.standard_normal((m, 2))), pi).vectors)
        argv = [command, "--input", path, "--n", str(n), "--epsilon", "0.25"]
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == COMMAND_FLAGS[command]
    if "seed" in config:
        assert config["seed"] == 7  # taken from the environment without --seed
