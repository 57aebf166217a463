"""The command line: exit codes of the error taxonomy, and replayable reports.

Property tests drive each command with malformed matrices and flag values:
every draw must end in a documented exit code, never a traceback.
"""

import contextlib
import io
import json
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsekit import cli, expdesign, kadison_singer, minip, psearch
from sparsekit.errors import BarrierCollapse, ConfigError, IterationExhausted, NoPositiveEntry
from sparsekit.io import write_matrix_file
from sparsekit.kadison_singer import ks_select
from sparsekit.linalg import VectorFamily, whiten

from conftest import harmonic_frame, random_isotropic_family, random_ks_family
from test_expdesign import SINGULAR_START
from test_solvers_golden import rare_direction_rows


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


def test_expdesign_nan_gamma_is_config_error_naming_gamma(tmp_path, rng, capsys):
    path = str(tmp_path / "design.mtx")
    write_matrix_file(path, rng.standard_normal((40, 3)))
    argv = ["expdesign", "--input", path, "--n", "20", "--whiten", "--gamma", "nan"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "gamma=nan violates gamma >= 3" in capsys.readouterr().err


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
    argv = ["ks", "--input", path, "--n", "8", "--backend", "aipe"]
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
    argv = ["ks", "--input", path, "--n", "12", "--backend", "afn"]
    assert cli.main(argv + ["--c", "0.505", "--tau", "0.5"]) == cli.EXIT_CONFIG
    assert "AFN structures exceeds the limit of 10000" in capsys.readouterr().err


def test_ks_afn_runs_without_profile(tmp_path, rng):
    # the one Min-IP index size keeps k*kappa under the structure limit
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--n", "8", "--backend", "afn"]
    out = tmp_path / "report.json"
    argv += ["--c", "0.505", "--tau", "0.5", "--seed", "3", "--output", str(out)]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["result"]["backend"] == "afn"
    # afn keeps the bound every backend keeps: beta a_n = a_n/c
    assert report["bound"] == pytest.approx(report["result"]["barrier_sequence"][-1] / 0.505)


@pytest.mark.parametrize(
    "argv",
    [
        ["ks", "--n", "16"],
        ["expdesign", "--n", "0", "--whiten"],
        ["expdesign", "--n", "-3", "--whiten"],
        ["expdesign", "--n", "8", "--whiten", "--gamma", "2"],
        ["expdesign", "--n", "8", "--whiten", "--epsilon", "0.3"],
        ["expdesign", "--n", "10", "--whiten"],
        ["expdesign", "--n", "900", "--whiten"],
    ],
    ids=[
        "ks-n-equals-m", "expdesign-n0", "expdesign-n-3",
        "expdesign-gamma2", "expdesign-eps0.3", "expdesign-n-below-floor", "expdesign-n-above-m",
    ],
)
def test_bad_sizes_are_config_errors(tmp_path, rng, capsys, argv):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    assert cli.main(argv + ["--input", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_ks_input_of_fewer_than_2d_rows_is_config_error(tmp_path, rng, capsys):
    # ks reads N = m/d off its input: 3 rows in R^2 give N = 1.5
    path = str(tmp_path / "ks.csv")
    write_matrix_file(path, rng.standard_normal((3, 2)))
    assert cli.main(["ks", "--input", path, "--n", "1"]) == cli.EXIT_CONFIG
    assert "config error: N=1.5 violates N >= 2" in capsys.readouterr().err


def test_ks_without_n_exits_2_before_reading_the_input(tmp_path, capsys):
    path = str(tmp_path / "missing.csv")
    assert cli.main(["ks", "--input", path, "--whiten"]) == cli.EXIT_CONFIG
    assert "--n is required" in capsys.readouterr().err


def test_ks_accepts_a_frame_whose_m_is_not_d_times_a_double(tmp_path, capsys):
    # m/d = 29/7 rounds, so d * (m/d) = 29.000000000000004 != m
    path = str(tmp_path / "harmonic.csv")
    write_matrix_file(path, harmonic_frame(29, 7).vectors)
    out = tmp_path / "report.json"
    assert cli.main(["ks", "--input", path, "--n", "14", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["result"]["final_norm"] < report["result"]["barrier_sequence"][-1]


@pytest.mark.parametrize("c, tau", [("0", "-0.02"), ("0.5", "-0.5")])
def test_ks_aipe_refuses_nonpositive_tau_or_c(tmp_path, rng, capsys, c, tau):
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    argv = ["ks", "--input", path, "--n", "8", "--backend", "aipe"]
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


@pytest.mark.parametrize("backend", ["exact", "aipe", "afn"])
def test_ks_negative_seed_is_config_error_before_building_the_index(rng, monkeypatch, backend):
    def no_build(*args, **kwargs):
        raise AssertionError("the Min-IP index was built")

    monkeypatch.setattr(kadison_singer, "MinIpBackend", no_build)
    family = random_ks_family(2, 8, rng)
    with pytest.raises(ConfigError, match="seed=-1 violates seed >= 0"):
        ks_select(family, 8, 8, backend=backend, c=0.505, tau=0.5, seed=-1)


@pytest.mark.parametrize(
    "argv",
    [
        ["ks", "--n", "8", "--backend", "aipe", "--c", "0.505", "--tau", "0.5"],
        ["ks", "--n", "8", "--backend", "afn", "--c", "0.505", "--tau", "0.5"],
        ["expdesign", "--n", "400", "--whiten"],
    ],
    ids=["ks-aipe", "ks-afn", "expdesign"],
)
def test_negative_seed_is_config_error(tmp_path, rng, capsys, argv):
    path = str(tmp_path / "input.mtx")
    if argv[0] == "ks":
        write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    else:
        write_matrix_file(path, rng.standard_normal((800, 2)))
    assert cli.main(argv + ["--input", path, "--seed", "-1"]) == cli.EXIT_CONFIG
    assert "seed=-1 violates seed >= 0" in capsys.readouterr().err


def test_complex_input_is_precondition_violation(tmp_path, capsys):
    path = tmp_path / "complex.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n2 2\n1 0\n0 0\n0 0\n1 2\n")
    assert cli.main(["sparsify", "--input", str(path)]) == cli.EXIT_PRECONDITION
    assert "complex entries" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv", [["sparsify"], ["expdesign", "--n", "2"]], ids=["sparsify", "expdesign"]
)
def test_whiten_of_an_overflowing_gram_matrix_is_precondition_violation(tmp_path, capsys, argv):
    # every entry is finite, but X^T X overflows to inf
    path = tmp_path / "huge.csv"
    path.write_text("1e308,1e308\n1e308,-1e308\n1e308,0\n")
    assert cli.main(argv + ["--input", str(path), "--whiten"]) == cli.EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "X^T diag(pi) X is not finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags", [["--epsilon", "1e-300"], ["--gamma", "1e308", "--epsilon", "1e-309"]]
)
def test_expdesign_underflowing_epsilon_exits_2(tmp_path, rng, capsys, flags):
    # eps^2 underflows to 0: the n floor 6d/eps^2/(gamma-1-2/c) reads inf
    path = str(tmp_path / "design.csv")
    write_matrix_file(path, rng.standard_normal((40, 3)))
    argv = ["expdesign", "--input", path, "--whiten", "--n", "20", *flags]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "6d/eps^2/(gamma-1-2/c) = inf" in err and "Traceback" not in err


ENTRIES = [0.0, 1.0, -2.5, 1e-300, 5e-324, 1e300, -1e308, np.nan, np.inf]
#: a zero or duplicate row, rank deficiency, one non-finite entry, extreme
#: magnitudes, or fewer than 2d rows
DEFECTS = ["zero", "duplicate", "rank", "nan", "inf", 1e-160, 1e160, "short"]


def odd_matrix(draw):
    """1-6 rows in R^1 to R^3 of entries drawn from ENTRIES."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.sampled_from(ENTRIES), min_size=m * d, max_size=m * d)))
    return X.reshape(m, d)


def with_defect(draw, X):
    """X, of at least 2 rows, with at most one of DEFECTS: none in half the draws."""
    d = X.shape[1]
    defect = draw(st.sampled_from([None] * len(DEFECTS) + DEFECTS))
    if defect == "zero":
        X[0] = 0.0
    elif defect == "duplicate":
        X[1] = X[0]
    elif defect == "rank":
        X[:, -1] = 0.0 if d == 1 else 2.0 * X[:, 0]
    elif defect in ("nan", "inf"):
        X[-1, 0] = float(defect)
    elif defect == "short":
        X = X[: 2 * d - 1]
    elif defect is not None:
        X *= defect
    return X


@st.composite
def design_matrices(draw):
    """An odd matrix (a quarter of draws), or 80-200 Gaussian rows in R^1 or
    R^2, tall enough for a solve, with at most one defect."""
    if draw(st.integers(0, 3)) == 0:
        return odd_matrix(draw)
    m, d = draw(st.integers(80, 200)), draw(st.integers(1, 2))
    X = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((m, d))
    return with_defect(draw, X)


#: flags some solve of an 80-200 row design accepts: at eps = 1/6, gamma = 6
#: and c = 0.9 the floor is n >= 77.8 d
FEASIBLE_FLAGS = {
    "--n": ["90", "160"],
    "--epsilon": ["0.16666666666666666"],
    "--gamma": ["6"],
    "--c": ["0.9", "0.905"],
    "--tau": ["0.5", "0.9"],
}
#: values that are not numbers, lie outside some flag's window, or are tiny
#: enough to underflow when squared
BAD_FLAG_VALUES = ["nan", "-1", "0", "1e-300", "1e-309", "5e-324", "0.2", "2", "1e308", "inf"]
#: hypothesis's floats favour 0, subnormals, extremes and non-finite values
bad_flag_values = st.one_of(st.sampled_from(BAD_FLAG_VALUES), st.floats().map(repr))


@st.composite
def expdesign_flags(draw):
    """Feasible values for --n, --epsilon, --gamma, --c and --tau, some of
    them dropped or set to a bad value; any --backend; --whiten in three
    draws of four."""
    broken = draw(st.sets(st.sampled_from(sorted(FEASIBLE_FLAGS)), max_size=2))
    argv = []
    for flag, usual in FEASIBLE_FLAGS.items():
        if flag not in broken:
            argv += [flag, draw(st.sampled_from(usual))]
        elif draw(st.booleans()):
            argv += [flag, draw(bad_flag_values)]
    argv += ["--backend", draw(st.sampled_from(["aipe", "exact", "afn", "bogus"]))]
    if draw(st.integers(0, 3)) > 0:
        argv.append("--whiten")
    return argv


UNDERFLOW_DESIGN = np.random.default_rng(0).standard_normal((40, 3))


@settings(max_examples=300, deadline=5000)
@given(X=design_matrices(), flags=expdesign_flags())
# random draws reach an underflowing eps^2 about once in 450 (9 of 4,000 in one sweep)
@example(X=UNDERFLOW_DESIGN, flags=["--whiten", "--n", "20", "--epsilon", "1e-300"])
@example(X=UNDERFLOW_DESIGN, flags=["--whiten", "--n", "20", "--gamma", "1e308", "--epsilon", "1e-309"])
def test_expdesign_ends_in_a_documented_exit_code(X, flags):
    assert_documented_exit("expdesign", X, flags)


def assert_documented_exit(command, X, flags):
    """main() on X, written as CSV, returns an exit code in 0-5 and prints no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.csv")
        write_matrix_file(path, X)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main([command, "--input", path, *flags])
            except SystemExit as exc:  # argparse refuses a malformed flag value
                code = exc.code
    assert code in range(6)
    assert "Traceback" not in err.getvalue()


@st.composite
def ks_cases(draw):
    """An odd matrix (a quarter of draws), or N random orthonormal d-frames
    scaled by 1/sqrt(N) (d <= 3, N <= 6), in one draw of four replaced by
    Gaussian rows, which are no frame, with at most one defect; and ks flags.

    --n (m/2, m - 1 or 0), --c and --tau (inside the window at 0.505 and
    0.5) and --seed (0 or 3) are valid, but for at most two of them, each
    dropped or set to a bad value: --n to m, m + 1 or a negative count, and
    --seed to a negative one.  --backend is any of four; --whiten is on in
    half the draws.
    """
    if draw(st.integers(0, 3)) == 0:
        X = odd_matrix(draw)
    else:
        d, N = draw(st.integers(1, 3)), draw(st.integers(2, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        frame = random_ks_family(d, N, rng).vectors
        X = with_defect(draw, frame if draw(st.integers(0, 3)) else rng.standard_normal(frame.shape))
    m = len(X)
    usual = {"--n": [m // 2, m - 1, 0], "--c": ["0.505"], "--tau": ["0.5"], "--seed": [0, 3]}
    bad = {"--n": st.sampled_from([m, m + 1, -1, -m]), "--seed": st.integers(-3, -1)}
    broken = draw(st.sets(st.sampled_from(sorted(usual)), max_size=2))
    flags = ["--backend", draw(st.sampled_from(["exact", "aipe", "afn", "bogus"]))]
    for flag, values in usual.items():
        if flag not in broken:
            flags += [flag, str(draw(st.sampled_from(values)))]
        elif draw(st.booleans()):
            flags += [flag, str(draw(bad.get(flag, bad_flag_values)))]
    if draw(st.booleans()):
        flags.append("--whiten")
    return X, flags


@settings(max_examples=150, deadline=5000)
@given(case=ks_cases())
def test_ks_ends_in_a_documented_exit_code(case):
    assert_documented_exit("ks", *case)


#: epsilon values refused before any solve; epsilon = 0.001 asks for
#: T = ceil(d/eps^2) >= 10^6 steps, over MAX_STEPS
BAD_EPSILONS = ["nan", "0", "1", "-0.5", "1e-300", "5e-324", "0.001", "inf", "2"]


@st.composite
def sparsify_cases(draw):
    """An odd matrix (a quarter of draws), or 10-60 Gaussian rows in R^1 to
    R^3, whitened in half the draws, with at most one defect; and sparsify
    flags.

    --epsilon is dropped (0.25), valid, or bad; the only valid values are
    0.1 or more, so no draw asks for more than 300 barrier steps.
    --whiten is on in three draws of four.
    """
    if draw(st.integers(0, 3)) == 0:
        X = odd_matrix(draw)
    else:
        m, d = draw(st.integers(10, 60)), draw(st.integers(1, 3))
        X = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((m, d))
        if draw(st.booleans()):
            X = whiten(VectorFamily(X)).vectors
        X = with_defect(draw, X)
    flags = []
    epsilon = draw(
        st.one_of(
            st.none(),
            st.sampled_from(["0.1", "0.25", "0.5", "0.9"] + BAD_EPSILONS),
            st.floats().filter(lambda eps: not 0.0 < eps < 0.1).map(repr),
        )
    )
    if epsilon is not None:
        flags += ["--epsilon", epsilon]
    if draw(st.integers(0, 3)) > 0:
        flags.append("--whiten")
    return X, flags


@settings(max_examples=150, deadline=5000)
@given(case=sparsify_cases())
def test_sparsify_ends_in_a_documented_exit_code(case):
    assert_documented_exit("sparsify", *case)


def test_sparsify_step_count_over_the_cap_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "identity.csv"
    path.write_text("1,0\n0,1\n")
    start = time.perf_counter()
    assert cli.main(["sparsify", "--input", str(path), "--epsilon", "1e-4"]) == cli.EXIT_CONFIG
    assert time.perf_counter() - start < 1.0  # T = 2e8 steps would take hours
    err = capsys.readouterr().err
    assert "asks for T = ceil(d/epsilon^2) = 2e+08 barrier steps" in err


def test_sparsify_whiten_with_a_zero_row_succeeds(tmp_path, rng):
    path = str(tmp_path / "family.mtx")
    write_matrix_file(path, np.vstack([np.zeros(8), rng.standard_normal((2000, 8))]))
    out = tmp_path / "report.json"
    argv = ["sparsify", "--input", path, "--whiten", "--epsilon", "0.5", "--output", str(out)]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["reference"]["fallbacks"] == report["fast"]["fallbacks"] == 0
    assert 0 not in report["reference"]["selection"]["indices"]


def test_sparsify_tree_without_witness_exits_4(tmp_path, rng, capsys, monkeypatch):
    def no_witness(self, A):
        raise NoPositiveEntry("no witness on this descent")

    monkeypatch.setattr(psearch._PartialSumTree, "query_positive", no_witness)
    path = str(tmp_path / "family.mtx")
    write_matrix_file(path, random_isotropic_family(40, 3, rng).vectors)
    assert cli.main(["sparsify", "--input", path]) == cli.EXIT_NUMERICAL
    assert "positive search found no witness" in capsys.readouterr().err


def test_sparsify_tree_that_cannot_fit_exits_2(tmp_path, rng, capsys, monkeypatch):
    def reference(*args):
        raise AssertionError("the reference solve ran before the tree refused")

    monkeypatch.setattr(psearch, "_physical_memory_bytes", lambda: 1 << 10)
    monkeypatch.setattr(cli.sp, "bss_reference", reference)
    path = str(tmp_path / "family.mtx")
    write_matrix_file(path, random_isotropic_family(40, 3, rng).vectors)
    assert cli.main(["sparsify", "--input", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "more than the 1024 bytes of physical memory" in err


def test_expdesign_iteration_cap_exits_5(tmp_path, rng, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise IterationExhausted("swap cap reached")

    monkeypatch.setattr(expdesign, "swap_round", exhausted)
    path = str(tmp_path / "design.mtx")
    write_matrix_file(path, rng.standard_normal((40, 3)))
    argv = ["expdesign", "--input", path, "--n", "20", "--whiten"]
    assert cli.main(argv) == cli.EXIT_EXHAUSTED
    assert "iteration cap exhausted: swap cap reached" in capsys.readouterr().err


def singular_start_input(tmp_path):
    """The design file and flags of test_expdesign's SINGULAR_START."""
    rows_seed, d, n, m, eps, gamma, c, _, seed = SINGULAR_START
    path = str(tmp_path / "design.mtx")
    write_matrix_file(path, rare_direction_rows(rows_seed, m, d))
    flags = ["--n", str(n), "--epsilon", repr(eps), "--gamma", repr(gamma), "--c", repr(c)]
    return ["expdesign", "--input", path, "--whiten", *flags, "--seed", str(seed)]


def test_expdesign_singular_start_is_swapped_until_it_clears(tmp_path, capsys):
    # threshold 0.0; the random start's lambda_min, 5.7e-16, is roundoff
    assert cli.main(singular_start_input(tmp_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["threshold"] == 0.0 and report["verdict"] == "pass"
    result = report["result"]
    assert result["swaps"] >= 1
    assert result["lambda_min"] > expdesign.CLEAR_TOL * result["lambda_max"]


def test_expdesign_verdict_fails_a_singular_selection(tmp_path, capsys, monkeypatch):
    solve = expdesign.swap_round

    def singular(*args, **kwargs):
        result = solve(*args, **kwargs)
        result.lambda_min, result.lambda_max = 5.7e-16, 4.0
        return result

    monkeypatch.setattr(expdesign, "swap_round", singular)
    assert cli.main(singular_start_input(tmp_path)) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_ks_barrier_collapse_exits_1(tmp_path, rng, capsys, monkeypatch):
    def collapse(*args, **kwargs):
        raise BarrierCollapse("norm crossed the barrier")

    monkeypatch.setattr(kadison_singer, "ks_select", collapse)
    path = str(tmp_path / "ks.mtx")
    write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
    assert cli.main(["ks", "--input", path, "--n", "8"]) == 1
    assert "error: norm crossed the barrier" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["absent.csv", ""], ids=["missing-file", "directory"])
def test_unreadable_csv_input_is_precondition_violation(tmp_path, capsys, name):
    path = str(tmp_path / name)  # "" names the directory itself
    assert cli.main(["sparsify", "--input", path]) == cli.EXIT_PRECONDITION
    assert f"cannot parse {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, message",
    [("no_such_dir/report.json", "lies in no existing directory"), ("", "is a directory")],
    ids=["missing-directory", "directory"],
)
def test_unwritable_output_is_config_error_before_the_solve(
    tmp_path, rng, capsys, monkeypatch, name, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(cli.sp, "bss_reference", no_solve)
    path = str(tmp_path / "family.mtx")
    write_matrix_file(path, random_isotropic_family(20, 3, rng).vectors)
    out = str(tmp_path / name)  # "" names the directory itself
    assert cli.main(["sparsify", "--input", path, "--output", out]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_failed_report_write_is_config_error(tmp_path, rng, capsys, monkeypatch):
    def failing_open(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    path = str(tmp_path / "family.mtx")
    write_matrix_file(path, random_isotropic_family(20, 3, rng).vectors)
    out = str(tmp_path / "report.json")
    assert cli.main(["sparsify", "--input", path, "--output", out]) == cli.EXIT_CONFIG
    assert "cannot write --output" in capsys.readouterr().err


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
        ["ks", "--N", "8"],
        ["sparsify", "--format", "csv"],
        ["expdesign", "--format", "matrix-market"],
    ],
)
def test_flag_the_command_does_not_read_or_unknown_command_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG


COMMAND_FLAGS = {
    "sparsify": {"input", "epsilon", "whiten", "output"},
    "ks": {"input", "whiten", "n", "backend", "c", "tau", "seed", "output"},
    "expdesign": {
        "input", "whiten", "n", "epsilon", "gamma",
        "c", "tau", "backend", "seed", "output",
    },
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_report_config_holds_exactly_the_command_flags(command, tmp_path, rng):
    path = str(tmp_path / "input.mtx")
    if command == "sparsify":
        write_matrix_file(path, random_isotropic_family(20, 3, rng).vectors)
        argv = [command, "--input", path]
    elif command == "ks":
        write_matrix_file(path, random_ks_family(2, 8, rng).vectors)
        argv = [command, "--input", path, "--n", "8"]
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
        assert config["seed"] == 0  # the default without --seed


@pytest.mark.parametrize(
    "argv",
    [["sparsify"], ["ks", "--n", "2"], ["expdesign", "--n", "2"]],
    ids=["sparsify", "ks", "expdesign"],
)
def test_an_overflowing_family_is_refused_without_a_runtime_warning(tmp_path, capsys, argv):
    # every entry is finite, but X^T X and the row norms overflow to inf
    path = tmp_path / "huge.csv"
    path.write_text("1e200,1e200\n1e200,-1e200\n1e200,0\n-1e200,1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv + ["--input", str(path)]) == cli.EXIT_PRECONDITION
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sparsify"], ["ks", "--n", "4"], ["expdesign", "--n", "4"]], ids=lambda a: a[0]
)
def test_missing_input_exits_2(argv, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "--input is required" in capsys.readouterr().err


def test_malformed_matrix_market_input_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nnot-a-number\n")
    assert cli.main(["sparsify", "--input", str(path)]) == cli.EXIT_PRECONDITION
    assert f"cannot parse {path}" in capsys.readouterr().err
