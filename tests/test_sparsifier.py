"""The BSS barrier loop: what each iteration scans, its trace, its barriers, its refusals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsekit import linalg, psearch, sparsifier
from sparsekit.errors import BarrierViolation, ConfigError, NoPositiveEntry, NoWitness
from sparsekit.errors import NumericalWarning
from sparsekit.linalg import VectorFamily

from conftest import count_full_passes, paired_angle_family, random_isotropic_family

SOLVERS = {"reference": sparsifier.bss_reference, "fast": sparsifier.sparsify_fast}
FULL_SCAN = linalg.quadratic_forms
BOUNDARY_SIZES = [1, 63, 64, 65, 191, 192, 193, 1000]


def chunk_end(j: int, m: int) -> int:
    """Rows a chunked scan of m rows reads when its first witness is row j."""
    stop, size = 0, sparsifier.SCAN_CHUNK
    while stop <= j:
        stop, size = stop + size, 2 * size
    return min(stop, m)


def record_barrier_calls(monkeypatch, change=None):
    """Wrap _barrier_matrices; return the list of (A, L, U) it saw, in call order.

    `change(call, A, L, U)` may return a replacement U for that call.
    """
    calls = []
    original = sparsifier._barrier_matrices

    def wrapped(A, *args):
        L, U, phi_u, phi_l = original(A, *args)
        if change is not None:
            U = change(len(calls) + 1, A, L, U)
        calls.append((A.copy(), L, U))
        return L, U, phi_u, phi_l

    monkeypatch.setattr(sparsifier, "_barrier_matrices", wrapped)
    return calls


@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_fast_path_never_scans_the_rows(monkeypatch, rng, kind):
    if kind == "vector":
        family = random_isotropic_family(300, 6, rng)
    else:
        family = paired_angle_family(8, 12)
    assert sparsifier.choose_tree(family) == kind

    def scan(V, M):
        raise AssertionError("the tree path scanned all m rows")

    monkeypatch.setattr(sparsifier, "quadratic_forms", scan)
    selection, _, trace = sparsifier.sparsify_fast(family, 0.5)
    assert trace.tree_kind == kind
    assert trace.fallbacks == 0
    assert selection.support_size > 0
    with pytest.raises(AssertionError, match="scanned"):
        sparsifier.bss_reference(family, 0.5)


@st.composite
def zero_patterns(draw):
    """Small finite families whose entries include 0.0, -0.0 and subnormals."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    entries = st.sampled_from([0.0, -0.0, 5e-324, -1.0, 2.5, 1e308])
    return np.array(draw(st.lists(entries, min_size=m * d, max_size=m * d))).reshape(m, d)


@settings(max_examples=200, deadline=None)
@given(zero_patterns())
@example(np.ones((5, 3)))
@example(np.array([[1.0, 0.0], [1.0, 1.0]]))
def test_choose_tree_is_the_nnz_cost_model(vectors):
    """The vector tree iff m d^2 <= sum_i nnz(v_i)^2, the cost model as written."""
    family = VectorFamily(vectors)
    m, d = vectors.shape
    nnz = np.count_nonzero(vectors, axis=1)
    want = "vector" if m * d**2 <= int(np.sum(nnz**2)) else "matrix"
    assert sparsifier.choose_tree(family) == want


@pytest.mark.parametrize("variant", list(SOLVERS))
def test_gap_sums_are_the_sum_of_row_quadratic_forms(monkeypatch, rng, variant):
    family = random_isotropic_family(200, 5, rng)
    calls = record_barrier_calls(monkeypatch)
    _, _, trace = SOLVERS[variant](family, 0.5)
    T = math.ceil(family.dim / 0.5**2)
    assert len(calls) == T and len(trace.gap_sums) == T + 1
    for t, (_, L, U) in enumerate(calls):
        Qgap = L - U
        explicit = sum(float(v @ Qgap @ v) for v in family.vectors)
        assert trace.gap_sums[t] == pytest.approx(explicit, rel=1e-9)
    assert math.isnan(trace.gap_sums[-1])


@pytest.mark.parametrize("variant", list(SOLVERS))
def test_nonpositive_step_scale_raises_barrier_violation(monkeypatch, variant):
    """Break U's definiteness on the last iteration along coordinate 0.

    U' = U - s e0 e0^T makes v^T (L + U') v negative and v^T (L - U') v
    large for every row on coordinates (0,1), which come first, so both
    variants pick such a row and get c <= 0.  No witness of a positive
    definite U has that scale, so the loop raises: no warning, no rescue.
    """
    family = paired_angle_family(8, 6)
    T = math.ceil(family.dim / 0.5**2)
    e0 = np.zeros(family.dim)
    e0[0] = 1.0

    def break_definiteness(call, A, L, U):
        return U - 1e6 * np.outer(e0, e0) if call == T else U

    record_barrier_calls(monkeypatch, break_definiteness)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalWarning)
        with pytest.raises(BarrierViolation, match=f"step {T}: step scale c=-"):
            SOLVERS[variant](family, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 6),
    rows_per_dim=st.integers(2, 40),
    epsilon=st.sampled_from([0.1, 0.25]),
)
@pytest.mark.parametrize("variant", list(SOLVERS))
def test_spectrum_ratio_stays_under_the_final_barriers(variant, seed, d, rows_per_dim, epsilon):
    """Both variants keep A_T inside (ell_T, u_T) of the one schedule.

    From u_0 = -ell_0 = d/eps the barriers step by 1 and 1/(1 + 2 eps) for
    T = ceil(d/eps^2) steps, so lambda_max / lambda_min < u_T / ell_T.  At
    eps = 0.5, ell_T = 0 and the ratio bounds nothing, so it is left out.
    """
    family = random_isotropic_family(d * rows_per_dim, d, np.random.default_rng(seed))
    _, A_final, trace = SOLVERS[variant](family, epsilon)
    T = math.ceil(d / epsilon**2)
    u_T = d / epsilon + T
    ell_T = -d / epsilon + T / (1.0 + 2.0 * epsilon)
    vals = np.linalg.eigvalsh(A_final * d)
    assert trace.barrier_contained
    assert 0.0 < ell_T < vals[0] and vals[-1] < u_T
    assert vals[-1] / vals[0] < u_T / ell_T


@pytest.mark.parametrize("variant", list(SOLVERS))
def test_step_count_over_the_cap_is_refused_before_the_gram_matrix(monkeypatch, variant):
    def gram(self):
        raise AssertionError("the Gram matrix was formed before the refusal")

    monkeypatch.setattr(VectorFamily, "gram", gram)
    family = VectorFamily(np.eye(2))
    with pytest.raises(ConfigError, match=r"T = ceil\(d/epsilon\^2\) = 2e\+08"):
        SOLVERS[variant](family, 1e-4)
    with pytest.raises(ConfigError, match="= 103306 barrier steps, more than MAX_STEPS = 100000"):
        SOLVERS[variant](family, 0.0044)
    with pytest.raises(ConfigError, match="= inf barrier steps"):
        SOLVERS[variant](family, 1e-200)  # eps^2 underflows to 0


class NumpyUntouched:
    """Stands in for psearch's numpy: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"the tree called numpy.{name} before refusing")


@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_tree_that_cannot_fit_is_refused_before_allocation(monkeypatch, rng, kind):
    if kind == "vector":
        family, name = random_isotropic_family(300, 6, rng), "BatchedVectorSearchTree"
    else:
        family, name = paired_angle_family(8, 12), "MatrixSearchTree"
    assert sparsifier.choose_tree(family) == kind
    d = family.dim
    monkeypatch.setattr(psearch, "_physical_memory_bytes", lambda: 1 << 10)
    monkeypatch.setattr(psearch, "np", NumpyUntouched())
    # the nodes alone, at capacity 64: 50 leaves of d = 6 vectors, or 48 one-vector leaves
    needed = 16 * 64 * d * d
    message = f"the {name} over m={family.count}, d={d} needs {needed} bytes"
    with pytest.raises(ConfigError, match=message):
        sparsifier.sparsify_fast(family, 0.5)


@pytest.mark.parametrize("m", BOUNDARY_SIZES)
def test_chunked_scan_stops_at_the_chunk_holding_the_only_witness(m):
    """Row j alone lies along e0, where Q is positive; every other row sees -1."""
    Q = np.diag([1.0, -1.0])
    for j in sorted({0, 62, 63, 64, 65, 190, 191, 192, 193, m - 1} & set(range(m))):
        V = np.tile([0.0, 1.0], (m, 1))
        V[j] = [1.0, 0.0]
        trace = sparsifier.BssTrace()
        assert sparsifier._first_witness(V, Q, trace) == j
        assert trace.rows_read == chunk_end(j, m)


@pytest.mark.parametrize("m", BOUNDARY_SIZES)
def test_chunked_scan_without_witness_reads_every_row_once(m):
    trace = sparsifier.BssTrace()
    with pytest.raises(NoWitness):
        sparsifier._first_witness(np.ones((m, 2)), -np.eye(2), trace)
    assert trace.rows_read == m


def check_reference_picks(monkeypatch, family, epsilon=0.5):
    """Run bss_reference with every pick checked against a full scan of the m rows.

    The pick must be the first index with v^T Q v > 0 over all m rows, and
    the rows the chunked scan handed to quadratic_forms must end at the
    chunk holding it.  Returns the picks and the trace.
    """
    m = family.count
    picks, scanned = [], []

    def counting_scan(V, M):
        scanned.append(len(V))
        return FULL_SCAN(V, M)

    original = sparsifier._first_witness

    def checked_first_witness(V, Qgap, trace):
        scanned.clear()
        read = trace.rows_read
        j = original(V, Qgap, trace)
        expected = np.flatnonzero(FULL_SCAN(family.vectors, Qgap) > 0.0)[0]
        assert j == expected
        assert sum(scanned) == trace.rows_read - read == chunk_end(j, m)
        picks.append(j)
        return j

    monkeypatch.setattr(sparsifier, "quadratic_forms", counting_scan)
    monkeypatch.setattr(sparsifier, "_first_witness", checked_first_witness)
    _, _, trace = sparsifier.bss_reference(family, epsilon)
    assert len(picks) == math.ceil(family.dim / epsilon**2)
    return picks, trace


@pytest.mark.parametrize("m", BOUNDARY_SIZES)
def test_reference_picks_the_first_witness_over_all_rows(monkeypatch, rng, m):
    family = random_isotropic_family(m, min(m, 4), rng)
    picks, trace = check_reference_picks(monkeypatch, family)
    assert trace.rows_read == sum(chunk_end(j, m) for j in picks)


@pytest.mark.parametrize("rows, at", [("gaussian", 0), ("paired", 64)])
def test_reference_picks_past_a_zero_row(monkeypatch, rng, rows, at):
    """A zero row has form exactly 0, so the oracle's first witness must be > 0.

    A zero row at 0 comes first every iteration.  On 8 coordinates x 24
    angles, some iteration's first witness lies past row 63, so a zero row
    at 64 is that iteration's first row with form >= 0.
    """
    if rows == "gaussian":
        vectors = random_isotropic_family(200, 4, rng).vectors
    else:
        vectors = paired_angle_family(8, 24).vectors
    family = VectorFamily(np.insert(vectors, at, 0.0, axis=0))
    picks, _ = check_reference_picks(monkeypatch, family)
    assert at not in picks


def test_reference_first_witness_past_the_first_chunk(monkeypatch):
    family = paired_angle_family(8, 24)
    picks, trace = check_reference_picks(monkeypatch, family)
    assert family.count == 96 and max(picks) >= sparsifier.SCAN_CHUNK
    assert trace.rows_read < len(picks) * family.count


def test_fast_path_makes_no_full_pass_when_every_proposal_verifies(monkeypatch):
    """2,000 whitened Gaussian rows in R^8 at eps = 0.5: the tree's every
    answer verifies, and no call reads all m rows."""
    family = random_isotropic_family(2000, 8, np.random.default_rng(0))
    full = count_full_passes(monkeypatch, sparsifier, family.count)
    _, _, trace = sparsifier.sparsify_fast(family, 0.5)
    assert trace.fallbacks == 0
    assert full == []


def test_fast_path_reads_no_rows(rng):
    _, _, trace = sparsifier.sparsify_fast(random_isotropic_family(300, 6, rng), 0.5)
    assert trace.rows_read == 0


@pytest.mark.parametrize("answer", ["raise", "zero row"])
def test_fast_path_scans_when_the_tree_has_no_witness(monkeypatch, rng, answer):
    """A descent that raises, or an answer whose form is exactly 0, is a counted fallback."""
    d = 6
    family = VectorFamily(np.vstack([np.zeros(d), random_isotropic_family(300, d, rng).vectors]))

    def query_positive(self, A):
        if answer == "raise":
            raise NoPositiveEntry("no witness on this descent")
        return 0  # the zero row

    monkeypatch.setattr(psearch._PartialSumTree, "query_positive", query_positive)
    with pytest.warns(NumericalWarning, match="positive search found no witness") as caught:
        selection, _, trace = sparsifier.sparsify_fast(family, 0.5)
    T = math.ceil(d / 0.5**2)
    assert len(caught) == trace.fallbacks == T
    assert trace.barrier_contained and trace.rows_read > 0
    assert 0 not in selection.indices


@pytest.mark.parametrize("m, d", [(2000, 8), (300, 4), (500, 6)])
def test_a_zero_row_never_witnesses(rng, m, d):
    # isotropy allows a zero row; its form is 0 and so is its step scale
    family = random_isotropic_family(m, d, rng)
    want, _, _ = sparsifier.bss_reference(family, 0.5)
    with_zero = VectorFamily(np.vstack([np.zeros(d), family.vectors]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalWarning)
        got, _, trace = sparsifier.bss_reference(with_zero, 0.5)
    assert trace.fallbacks == 0
    assert np.array_equal(got.indices, want.indices + 1)
    assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("seed", range(5))
def test_fast_path_keeps_its_barrier_under_an_adversarial_tree(monkeypatch, seed):
    """A tree that answers a random row: each answer whose form is not > 0 is a
    warned, counted fallback, and the barrier guarantee holds."""
    d, epsilon = 4, 0.25
    family = random_isotropic_family(200, d, np.random.default_rng(seed))
    V = family.vectors
    answers = np.random.default_rng(1000 + seed)
    failed = []

    def query_positive(self, A):
        j = int(answers.integers(len(V)))
        failed.append(not float(V[j] @ A @ V[j]) > 0.0)
        return j

    monkeypatch.setattr(psearch._PartialSumTree, "query_positive", query_positive)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NumericalWarning)
        _, A_final, trace = sparsifier.sparsify_fast(family, epsilon)
    assert 0 < trace.fallbacks == sum(failed) == len(caught) < len(failed)
    T = math.ceil(d / epsilon**2)
    u_T = d / epsilon + T
    ell_T = -d / epsilon + T / (1.0 + 2.0 * epsilon)
    vals = np.linalg.eigvalsh(A_final * d)
    assert trace.barrier_contained
    assert 0.0 < ell_T and vals[-1] / vals[0] < u_T / ell_T
