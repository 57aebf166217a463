"""Swap rounding: input and window checks, find_ct's contract with a
bisection as its oracle, the lambda_min guarantee over many seeds on every
backend, a singular design that must not clear a zero target, the afn
backend queried after inserts, proposals that never verify or that name a
non-member, one eigendecomposition per iteration, and the removal and
addition scans against per-row oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsekit import expdesign
from sparsekit.errors import (
    ConfigError,
    IterationExhausted,
    NoEligibleRemoval,
    PreconditionViolation,
)
from sparsekit.linalg import VectorFamily, whiten

from test_solvers_golden import SWAP_CASES, rare_direction_rows


def bisection_find_ct(eigenvalues, alpha):
    """The root of the trace map by monotone bisection, with the same stop test: the oracle."""
    vals = np.asarray(eigenvalues, dtype=float)
    scaled = alpha * vals
    d = len(vals)

    def trace_at(c: float) -> float:
        return float(np.sum((c + scaled) ** -2.0))

    hi = math.sqrt(d) - scaled[0]  # trace_at(hi) = sum (sqrt(d) + a(l_i - l_min))^-2 <= 1
    lo_base = -scaled[0]
    step = max(abs(hi - lo_base), 1.0)
    lo = lo_base + step
    while trace_at(lo) < 1.0:
        step /= 2.0
        lo = lo_base + step
        if step < 1e-300:
            raise ArithmeticError("bisection bracket collapsed")
    hi = max(hi, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trace_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if abs(trace_at(0.5 * (lo + hi)) - 1.0) <= 1e-10:
            break
    return 0.5 * (lo + hi)


def trace_residual(c, vals, alpha):
    return abs(float(np.sum((c + alpha * vals) ** -2.0)) - 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e4), min_size=1, max_size=32),
    st.floats(1e-3, 1e4),
)
@example([1e4, 1e4], 1e4)  # no float c puts the trace within 1e-10 of 1
def test_find_ct_meets_the_trace_or_the_bisections_residual(values, alpha):
    """c lies in the map's domain, and its trace is within 1e-10 of 1; where
    the float grid near -alpha lambda_min cannot resolve that, its residual
    is no larger than the bisection's."""
    vals = np.sort(values)
    c = expdesign.find_ct(vals, alpha)
    assert c > -alpha * vals[0]
    residual = trace_residual(c, vals, alpha)
    oracle = trace_residual(bisection_find_ct(vals, alpha), vals, alpha)
    assert residual <= 1e-10 or residual <= oracle


def check_lambda_min_bound(case, backend, rows_seed, seed):
    """Solve at the golden case's shape and settings on `backend`, over rows
    drawn from rows_seed, and check the members and lambda_min > 1 - gamma eps."""
    _, d, eps, gamma, c, tau, n, m, _, _ = SWAP_CASES[case]
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c,
        tau=None if backend == "exact" else tau, backend=backend, seed=seed,
    )
    indices = out.selection.indices
    assert len(np.unique(indices)) == len(indices) == n
    rows = family.vectors[indices]
    assert np.linalg.eigvalsh(rows.T @ rows)[0] > 1.0 - gamma * eps
    start = out.initial_set
    assert start.dtype == np.int64 and start.shape == (n,)
    assert np.all(np.diff(start) > 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["exact", "aipe"]), st.integers(0, 2**16), st.integers(0, 2**16))
def test_swap_round_clears_its_lambda_min_bound(backend, rows_seed, seed):
    # the golden shape: a random 772-subset of these rows misses a rare direction
    check_lambda_min_bound("exact-s1", backend, rows_seed, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_swap_round_on_afn_clears_its_lambda_min_bound(rows_seed, seed):
    # the smallest golden shape at which the afn window holds
    check_lambda_min_bound("afn-s0", "afn", rows_seed, seed)


@pytest.mark.parametrize("backend, tau", [("exact", None), ("aipe", 0.5)])
def test_negative_seed_is_config_error_before_any_work(monkeypatch, backend, tau):
    def no_work(*args, **kwargs):
        raise AssertionError("swap_round started work")

    monkeypatch.setattr(expdesign, "check_isotropy", no_work)
    monkeypatch.setattr(expdesign, "MinIpBackend", no_work)
    m, n = 800, 400
    family = VectorFamily(np.ones((m, 2)))
    with pytest.raises(ConfigError, match="seed=-1 violates seed >= 0"):
        expdesign.swap_round(family, np.full(m, n / m), n, 0.2, tau=tau, backend=backend, seed=-1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
def test_pi_outside_the_unit_interval_is_precondition_violation(rng, bad):
    # feasible apart from pi[0]: n >= 6d/eps^2/(gamma-1-2/c) = 385.7 at d=2,
    # eps=0.2, gamma=4, c=0.9, the CLI defaults
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    pi[0] = bad
    with pytest.raises(PreconditionViolation, match=r"pi must lie in \[0, 1\]\^m"):
        expdesign.swap_round(family, pi, n, 0.2)


def test_family_not_whitened_for_pi_is_precondition_violation(rng):
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))))  # isotropic, not for pi
    with pytest.raises(PreconditionViolation, match="whiten the family first"):
        expdesign.swap_round(family, pi, n, 0.2)


def test_nan_gamma_is_refused_by_name(rng):
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    with pytest.raises(ConfigError, match="gamma=nan violates gamma >= 3"):
        expdesign.swap_round(family, pi, n, 0.2, gamma=math.nan)


def test_aipe_backend_refuses_negative_tau(rng):
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    with pytest.raises(ConfigError, match="tau=-0.5 violates 0 < tau < 1"):
        expdesign.swap_round(family, pi, n, 0.2, tau=-0.5, backend="aipe")


def test_afn_backend_queries_after_inserts(monkeypatch):
    # the random start misses both rare directions, so it takes two swaps, and
    # the second removal is proposed by an index that has had a row inserted
    d, n, m = 4, 310, 1240
    eps, gamma = 1.0 / 6.0, 6.0
    calls = []
    for name in ("propose", "insert"):
        method = getattr(expdesign.MinIpBackend, name)

        def spy(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(expdesign.MinIpBackend, name, spy)
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(3, m, d)), pi)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=0.905, tau=0.9, backend="afn", seed=3
    )
    assert out.swaps >= 2
    assert out.lambda_min > 1.0 - gamma * eps
    assert "propose" in calls[calls.index("insert") + 1 :]


#: rows seed, d, n, m, epsilon, gamma, c, tau and solver seed of a design whose
#: random start misses a rare direction while 1 - gamma eps is exactly 0.0
SINGULAR_START = (7, 4, 310, 1240, 1.0 / 6.0, 6.0, 0.905, 0.9, 7)


def test_a_singular_design_does_not_clear_a_zero_target():
    # the random start has rank 3 in R^4: its lambda_min is 5.7e-16, roundoff
    # above the target 0.0, which must not count as clearing it
    rows_seed, d, n, m, eps, gamma, c, tau, seed = SINGULAR_START
    assert 1.0 - gamma * eps == 0.0
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    for backend in ("exact", "afn"):
        out = expdesign.swap_round(
            family, pi, n, eps, gamma=gamma, c=c,
            tau=None if backend == "exact" else tau, backend=backend, seed=seed,
        )
        assert out.swaps >= 1 and abs(out.lambda_trace[0]) < 1e-12
        rows = family.vectors[out.selection.indices]
        vals = np.linalg.eigvalsh(rows.T @ rows)
        assert vals[0] > expdesign.CLEAR_TOL * vals[-1]
        assert expdesign.clears(out.lambda_min, out.lambda_max, 0.0)


@pytest.mark.parametrize("epsilon, gamma", [(1e-300, 4.0), (1e-309, 1e308)])
def test_underflowing_epsilon_squared_is_refused_by_the_n_floor(rng, epsilon, gamma):
    # eps^2 underflows to 0, so n >= 6d/eps^2/(gamma-1-2/c) can hold for no n
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    with pytest.raises(ConfigError, match=r"n=400 violates n >= 6d/eps\^2/\(gamma-1-2/c\) = inf"):
        expdesign.swap_round(family, pi, n, epsilon, gamma=gamma)


def test_aipe_proposals_that_never_verify_fall_back_to_the_exact_scan(monkeypatch):
    """With B^- patched to inf no proposal verifies, so every removal is the
    scan's and the run is the exact backend's at the same seed."""
    rows_seed, d, eps, gamma, c, tau, n, m, _, seed = SWAP_CASES["aipe-s1"]
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    exact = expdesign.swap_round(family, pi, n, eps, gamma=gamma, c=c, seed=seed)
    monkeypatch.setattr(expdesign, "_b_minus", lambda *args: math.inf)
    aipe = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c, tau=tau, backend="aipe", seed=seed
    )
    assert aipe.swaps >= 1 and aipe.fallbacks == aipe.swaps
    np.testing.assert_array_equal(aipe.selection.indices, exact.selection.indices)
    for trace in ("lambda_trace", "trace_minus", "trace_plus"):
        assert getattr(aipe, trace) == getattr(exact, trace)


def record_swap_eigensolves(monkeypatch, case):
    """Solve the golden case with expdesign.eigendecompose and np.linalg.eigvalsh
    counted; return the result, each eigendecomposed matrix, and the eigvalsh calls."""
    rows_seed, d, eps, gamma, c, tau, n, m, backend, seed = SWAP_CASES[case]
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    decomposed, eigvalshs = [], []
    eigendecompose, eigvalsh = expdesign.eigendecompose, np.linalg.eigvalsh

    def counted_eigendecompose(Z):
        decomposed.append(Z.copy())
        return eigendecompose(Z)

    def counted_eigvalsh(*args, **kwargs):
        eigvalshs.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(expdesign, "eigendecompose", counted_eigendecompose)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    result = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c,
        tau=None if backend == "exact" else tau, backend=backend, seed=seed,
    )
    monkeypatch.undo()  # the callers' own eigvalsh calls are not the solver's
    return result, decomposed, eigvalshs


@pytest.mark.parametrize("case", list(SWAP_CASES))
def test_one_eigendecomposition_per_iteration_and_no_eigvalsh(monkeypatch, case):
    result, decomposed, eigvalshs = record_swap_eigensolves(monkeypatch, case)
    assert result.swaps >= 1
    assert len(decomposed) == result.swaps + 1  # the start, then once after each swap
    assert eigvalshs == []


@pytest.mark.parametrize("case", list(SWAP_CASES))
def test_lambda_trace_is_each_steps_smallest_eigenvalue(monkeypatch, case):
    result, decomposed, _ = record_swap_eigensolves(monkeypatch, case)
    assert len(result.lambda_trace) == len(decomposed)
    for lam, Z in zip(result.lambda_trace, decomposed):
        assert abs(lam - np.linalg.eigvalsh(Z)[0]) <= 1e-12


class RandomMembers:
    """A stand-in MinIpBackend that answers a random stored row from its own
    seeded generator, and follows retire and insert."""

    def __init__(self, kind, X, rows, c, tau, seed):
        self.rows = [int(r) for r in rows]
        self.answers = np.random.default_rng(1000 + seed)

    def propose(self, Q, rng):
        return self.rows[int(self.answers.integers(len(self.rows)))]

    def retire(self, row):
        self.rows.remove(row)

    def insert(self, row):
        assert row not in self.rows
        self.rows.append(row)


class NonMember(RandomMembers):
    """A stand-in that answers the lowest row it does not store."""

    def propose(self, Q, rng):
        return min(set(range(len(self.rows) + 1)).difference(self.rows))


def test_a_proposed_non_member_is_a_counted_fallback(monkeypatch):
    # verify refuses the row before B^- is read, so every removal is the
    # scan's, and the run is the exact backend's at the same seed
    rows_seed, d, eps, gamma, c, tau, n, m, _, seed = SWAP_CASES["aipe-s1"]
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    exact = expdesign.swap_round(family, pi, n, eps, gamma=gamma, c=c, seed=seed)
    monkeypatch.setattr(expdesign, "MinIpBackend", NonMember)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c, tau=tau, backend="aipe", seed=seed
    )
    assert out.swaps >= 1 and out.fallbacks == out.swaps
    np.testing.assert_array_equal(out.selection.indices, exact.selection.indices)


@pytest.mark.parametrize("seed", range(5))
def test_adversarial_proposals_keep_the_lambda_min_bound(monkeypatch, seed):
    """Each random member whose B^- exceeds the removal bound is a counted
    fallback, and lambda_min still clears 1 - gamma eps.  At this shape every
    member's B^- is far below the bound, so every proposal verifies; the
    counted path is checked by the never-verifying test above."""
    rows_seed, d, eps, gamma, c, tau, n, m, _, _ = SWAP_CASES["aipe-s1"]
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    bound = (1.0 - eps) / (n / c) * (1.0 + 1e-9)
    b_minus = expdesign._b_minus
    failed = []

    def recording_b_minus(*args):
        value = b_minus(*args)
        failed.append(value > bound)
        return value

    monkeypatch.setattr(expdesign, "MinIpBackend", RandomMembers)
    monkeypatch.setattr(expdesign, "_b_minus", recording_b_minus)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=c, tau=tau, backend="aipe", seed=seed
    )
    assert out.swaps == len(failed) and out.fallbacks == sum(failed)
    assert out.lambda_min > 1.0 - gamma * eps


def scan_case(m, d, seed):
    """Rows drawn from a pool of distinct rows, so scores tie exactly; random
    PSD A and A_half, alpha and beta that leave some members ineligible, and
    a random member mask."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((int(rng.integers(1, m + 1)), d))
    X = pool[rng.integers(0, len(pool), m)]
    A, A_half = (B @ B.T / d for B in rng.standard_normal((2, d, d)))
    alpha, beta = rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0)
    inside = rng.random(m) < rng.random()
    return X, A, A_half, alpha, beta, inside


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_removal_scan_takes_the_lowest_member_with_the_least_b_minus(m, d, seed):
    X, A, A_half, alpha, beta, inside = scan_case(m, d, seed)
    oracle = [
        expdesign._b_minus(A, A_half, x, alpha, beta) if member else math.inf
        for x, member in zip(X, inside)
    ]
    forms = expdesign._row_forms(X, A, A_half)
    if min(oracle) == math.inf:  # no member, or none with a positive denominator
        with pytest.raises(NoEligibleRemoval):
            expdesign._removal_scan(inside, *forms, alpha, beta)
        return
    row, score = expdesign._removal_scan(inside, *forms, alpha, beta)
    assert inside[row]
    assert row == oracle.index(min(oracle))
    # the denominator beta - 2 alpha half cancels, which scales the relative error
    half = float(X[row] @ A_half @ X[row])
    rel = 1e-12 * (beta + 2.0 * alpha * half) / (beta - 2.0 * alpha * half)
    assert score == pytest.approx(oracle[row], rel=rel, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_addition_scan_takes_the_lowest_non_member_with_the_largest_b_plus(m, d, seed):
    X, A, A_half, alpha, beta, inside = scan_case(m, d, seed)
    assume(not inside.all())
    oracle = [
        -math.inf if member else float(x @ A @ x) / (beta + 2.0 * alpha * float(x @ A_half @ x))
        for x, member in zip(X, inside)
    ]
    row, score = expdesign._addition_scan(~inside, *expdesign._row_forms(X, A, A_half), alpha, beta)
    assert not inside[row]
    assert row == oracle.index(max(oracle))
    assert score == pytest.approx(oracle[row], rel=1e-12, abs=0.0)


def test_swap_cap_raises_iteration_exhausted_with_the_last_state(monkeypatch, rng):
    """A solve whose lambda_min never clears stops after T_cap = ceil(n/(c eps))
    swaps: IterationExhausted carries the last lambda_min and the result so far."""
    m, n, eps, c = 800, 400, 0.2, expdesign.DEFAULT_C
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    monkeypatch.setattr(expdesign, "clears", lambda *args: False)
    with pytest.raises(IterationExhausted, match="swap cap T=2223") as exc:
        expdesign.swap_round(family, pi, n, eps, c=c)
    result = exc.value.state["result"]
    assert result.swaps == math.ceil(n / (c * eps)) == 2223
    assert len(result.lambda_trace) == result.swaps + 1
    assert exc.value.state["lambda_min"] == result.lambda_min == result.lambda_trace[-1]
    indices = result.selection.indices
    assert len(np.unique(indices)) == len(indices) == n


@pytest.mark.parametrize(
    "pi, message",
    [
        (np.full(799, 0.5), "one weight to every vector"),
        (np.full((800, 1), 0.5), "one weight to every vector"),
        (np.full(800, 0.625), r"\|\|pi\|\|_1=500.0 violates \|\|pi\|\|_1 <= n=400"),
    ],
    ids=["short", "column", "over-n"],
)
def test_pi_of_the_wrong_shape_or_mass_is_precondition_violation(rng, pi, message):
    m, n = 800, 400
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), np.full(m, n / m))
    with pytest.raises(PreconditionViolation, match=message):
        expdesign.swap_round(family, pi, n, 0.2)
