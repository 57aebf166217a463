"""Kadison-Singer selection: each backend's norm guarantee over many inputs.

ks_select promises a final norm below a_n on the exact backend and at most
a_n/c on aipe and afn.  Each is checked against the
largest eigenvalue eigvalsh finds for the selection's sum of outer
products, over seeded families at the golden shapes and settings.  Also:
the exact scan's tie rule and its mask of chosen rows, and the query
matrix against its resolvent form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit import kadison_singer
from sparsekit.kadison_singer import TIE_TOL, _greedy_loop, ks_barrier_sequence, ks_query_matrix
from sparsekit.kadison_singer import ks_select
from sparsekit.linalg import EigenDecomposition
from sparsekit.minip import MinIpConfig

from conftest import count_full_passes, harmonic_frame, random_ks_family
from test_solvers_golden import KS_C, KS_TAU

#: each backend's bound on the final norm, in units of a_n
BOUND = {"exact": 1.0, "aipe": 1.0 / KS_C, "afn": 1.0 / KS_C}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 8), (3, 6), (2, 12)]), st.integers(0, 2**16))
def test_every_backend_keeps_its_norm_bound(shape, seed):
    d, N = shape
    family = random_ks_family(d, N, np.random.default_rng(seed))
    n = family.count // 2
    for backend, factor in BOUND.items():
        kwargs = {} if backend == "exact" else {"c": KS_C, "tau": KS_TAU}
        result = ks_select(family, N, n, backend=backend, seed=seed, **kwargs)
        indices = result.selection.indices
        assert len(np.unique(indices)) == len(indices) == n
        a_n = result.barrier_sequence[-1]
        norm = np.linalg.eigvalsh(result.selection.reconstruct(family))[-1]
        if backend == "exact":
            assert norm < a_n
        else:
            assert norm <= factor * a_n


@pytest.mark.parametrize("backend", ["afn", "aipe"])
def test_an_accelerated_solve_makes_no_full_pass(monkeypatch, backend):
    """At ks-afn's shape, (d, N) = (2, 8) and n = m/2, over 5 seeds: every
    proposal verifies, and no call scores all m rows; the exact backend,
    as a control, makes one such call per step."""
    d, N = 2, 8
    full = count_full_passes(monkeypatch, kadison_singer, d * N)
    for seed in range(5):
        family = random_ks_family(d, N, np.random.default_rng(seed))
        n = family.count // 2
        result = ks_select(family, N, n, backend=backend, c=KS_C, tau=KS_TAU, seed=seed)
        assert (len(full), result.fallbacks) == (0, 0)
        ks_select(family, N, n)
        assert len(full) == n
        full.clear()


def test_a_frame_whose_m_is_not_d_times_a_double_is_accepted():
    # 29/7 is the double nearest m/d, yet 7 * (29/7) = 29.000000000000004
    family = harmonic_frame(29, 7)
    result = ks_select(family, 29 / 7, 14)
    assert len(np.unique(result.selection.indices)) == 14
    assert result.final_norm < result.barrier_sequence[-1]


def test_minip_config_changes_no_afn_solve(rng):
    """perfbench's ks-afn solve passes MinIpConfig.desk(...); it answers as without one."""
    family = random_ks_family(2, 8, rng)
    plain = ks_select(family, 8, 8, backend="afn", c=KS_C, tau=KS_TAU, seed=3)
    config = MinIpConfig.desk(sketch_dim=16, sketch_sparsity=4)
    shim = ks_select(
        family, 8, 8, backend="afn", c=KS_C, tau=KS_TAU, seed=3, minip_config=config
    )
    assert shim.selection.indices.tolist() == plain.selection.indices.tolist()
    assert shim.score_trace == plain.score_trace
    assert shim.final_norm == plain.final_norm


class NoProposal:
    """A backend that never proposes: every step falls back to the scan."""

    def __init__(self):
        self.retired = []

    def propose(self, Q):
        return None

    def retire(self, i):
        self.retired.append(i)


def test_a_backend_without_proposals_falls_back_to_the_exact_scan_at_every_step(rng):
    family = random_ks_family(2, 8, rng)
    n = family.count // 2
    a = ks_barrier_sequence(8, family.count, n)
    backend = NoProposal()
    got = _greedy_loop(family, a, 1.0 / KS_C, backend.propose, backend.retire)
    want = _greedy_loop(family, a, 1.0 / KS_C)
    assert got.fallbacks == n and want.fallbacks == 0
    assert got.selection.indices.tolist() == want.selection.indices.tolist() == backend.retired
    assert got.score_trace == want.score_trace


def test_a_proposed_chosen_row_is_a_counted_fallback(rng):
    # the proposer answers the first chosen row: verify refuses it before
    # its witness is read, so every step is the exact scan's
    family = random_ks_family(2, 8, rng)
    n = family.count // 2
    a = ks_barrier_sequence(8, family.count, n)
    chosen = []
    got = _greedy_loop(family, a, 1.0 / KS_C, lambda Q: chosen[0] if chosen else None, chosen.append)
    want = _greedy_loop(family, a, 1.0 / KS_C)
    assert got.fallbacks == n
    assert got.selection.indices.tolist() == want.selection.indices.tolist() == chosen


@pytest.mark.parametrize("d, N", [(2, 8), (3, 6), (4, 5), (2, 12)])
@pytest.mark.parametrize("seed", range(5))
def test_exact_scan_takes_the_lowest_of_tied_indices(d, N, seed):
    """On stacked orthonormal frames every score ties at step 0; a pick's
    frame-mates, orthogonal to it, then tie below the rest, and after each
    completed frame all remaining rows tie again.  So the tie rule picks the
    rows in order, whatever the last bits of the scores."""
    family = random_ks_family(d, N, np.random.default_rng(seed))
    n = family.count // 2
    assert ks_select(family, N, n).selection.indices.tolist() == list(range(n))


def test_exact_scan_skips_chosen_rows_and_takes_the_first_within_tie_tol(monkeypatch):
    """Row 0 keeps the least score after it is chosen, and must not be picked
    again.  Row 4 is then within TIE_TOL above row 7's least score, so it is
    picked first; row 2 is just outside, so row 7 is picked next."""
    family = random_ks_family(2, 16, np.random.default_rng(0))
    least = 0.5
    scores = np.full(family.count, 0.9)
    scores[[0, 2, 4, 7]] = 0.1, least * (1.0 + 2e-12), least * (1.0 + 0.9e-12), least
    assert scores[4] <= least + TIE_TOL * least < scores[2]
    monkeypatch.setattr(kadison_singer, "quadratic_forms", lambda V, Q: scores.copy())
    out = _greedy_loop(family, ks_barrier_sequence(16, family.count, 3), 1.0)
    assert out.selection.indices.tolist() == [0, 4, 7]
    assert out.score_trace == [0.1, scores[4], least]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.floats(1e-3, 10.0),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**16),
)
def test_query_matrix_is_the_resolvent_square_over_the_gap_plus_the_resolvent(
    values, margin, step, seed
):
    vals = np.sort(values)
    d = len(vals)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    eig = EigenDecomposition(vals, Q)
    a_prev = vals[-1] + margin
    a_cur = a_prev + step
    phi_prev, phi_cur = eig.potentials(a_prev, a_cur)
    M = eig.weighted(1.0 / (a_cur - vals))
    want = M @ M / (phi_prev - phi_cur) + M
    got = ks_query_matrix(eig, a_prev, a_cur)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_adversarial_proposals_keep_the_norm_bound():
    """A backend that answers a random remaining row: each answer whose
    witness exceeds beta is a counted fallback, and the norm stays below
    beta a_n.  At beta = 1/c every row passed the witness test on every
    shape tried, so this runs at the exact backend's beta = 1, where a few
    do not."""
    total = 0
    for seed in range(5):
        family = random_ks_family(2, 12, np.random.default_rng(seed))
        V, n, beta = family.vectors, family.count // 2, 1.0
        a = ks_barrier_sequence(12, family.count, n)
        remaining = list(range(family.count))
        answers = np.random.default_rng(1000 + seed)
        failed = []

        def propose(Q):
            i = remaining[int(answers.integers(len(remaining)))]
            failed.append(float(V[i] @ Q @ V[i]) > beta * (1.0 + 1e-9))
            return i

        result = _greedy_loop(family, a, beta, propose, remaining.remove)
        assert result.fallbacks == sum(failed) and len(failed) == n
        assert result.final_norm < beta * a[-1]
        total += result.fallbacks
    assert total > 0
