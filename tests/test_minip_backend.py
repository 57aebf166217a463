"""Bookkeeping of the Min-IP backend shared by the greedy solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.errors import ConfigError, NotFound, PreconditionViolation
from sparsekit.minip_backend import MinIpBackend

M, D, START = 12, 2, 6


def family_rows() -> np.ndarray:
    X = np.random.default_rng(5).standard_normal((M, D))
    return X / np.linalg.norm(X, axis=1)[:, None]


def make_backend(kind: str) -> MinIpBackend:
    return MinIpBackend(
        kind,
        family_rows(),
        range(START),
        c=0.505,
        tau=0.5,
        seed=0,
    )


@pytest.mark.parametrize("kind", ["aipe", "afn"])
@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, M - 1)), max_size=16),
    query_seed=st.integers(0, 2**32 - 1),
)
def test_retire_insert_keep_maps_a_bijection(kind, ops, query_seed):
    """Under any retire/insert sequence the pid <-> row maps stay inverse to
    each other and to the stored set, and propose returns only stored rows."""
    backend = make_backend(kind)
    rng = np.random.default_rng(query_seed)
    stored = set(range(START))
    for retire, k in ops:
        if retire and len(stored) > 1:
            row = sorted(stored)[k % len(stored)]
            backend.retire(row)
            stored.remove(row)
        elif not retire and len(stored) < M:
            absent = sorted(set(range(M)) - stored)
            row = absent[k % len(absent)]
            backend.insert(row)
            stored.add(row)
        assert set(np.flatnonzero(backend._pid_of >= 0).tolist()) == stored
        assert all(backend._row_of[backend._pid_of[row]] == row for row in stored)
        assert backend._index.count == len(stored)
        Q = rng.standard_normal((D, D))
        proposed = backend.propose(Q + Q.T, rng)
        assert proposed is None or proposed in stored


@pytest.mark.parametrize(
    "kind, c, tau, message",
    [
        ("exact", 0.505, 0.5, "unknown backend"),
        ("aipe", None, 0.5, "needs both c and tau"),
        ("afn", 0.5, 0.505, "c > tau"),
        ("aipe", 0.995, 0.5, r"c < 1.01\*tau/\(0.01\+tau\)"),
        ("aipe", 0.0, -0.02, "tau=-0.02 violates 0 < tau < 1"),
        ("aipe", 0.5, -0.5, "tau=-0.5 violates 0 < tau < 1"),
        ("afn", 0.5, -0.5, "tau=-0.5 violates 0 < tau < 1"),
        ("aipe", 0.5, 1.0, "tau=1.0 violates 0 < tau < 1"),
        ("aipe", 0.0, 0.5, "c=0.0 violates 0 < c < 1"),
        ("afn", 1.2, 0.5, "c=1.2 violates 0 < c < 1"),
    ],
)
def test_window_rejected(kind, c, tau, message):
    with pytest.raises(ConfigError, match=message):
        MinIpBackend(kind, family_rows(), range(START), c, tau, 0)


def test_afn_row_reinserted_is_the_same_unit_point():
    """Build and insert share one D_X taken over all of X: a row retired and
    stored again is the same unit point, even when a row outside the initial
    set is the longest."""
    X = family_rows()
    X[START] *= 1.5
    backend = MinIpBackend(
        "afn",
        X,
        range(START),
        c=0.505,
        tau=0.5,
        seed=0,
    )
    points = backend._index._points
    before = points[backend._pid_of[0]].copy()
    backend.retire(0)
    backend.insert(0)
    assert np.array_equal(points[backend._pid_of[0]], before)
    backend.insert(START)
    assert np.linalg.norm(points[backend._pid_of[START]]) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["aipe", "afn"])
def test_retire_of_a_row_not_stored_is_refused_before_any_change(kind):
    backend = make_backend(kind)
    backend.retire(2)
    for row in (2, START, M, -1):  # retired, never stored, outside X, and negative
        with pytest.raises(NotFound, match=f"row {row} is not stored"):
            backend.retire(row)
    assert backend._index.count == START - 1
    backend.insert(2)  # a retired row may be stored again
    assert backend._index.count == START


@pytest.mark.parametrize("kind", ["aipe", "afn"])
def test_insert_of_a_stored_row_is_refused_before_any_change(kind):
    """A second pid for one row would outlive the row's retire: the index
    would count a row the backend no longer stores."""
    backend = make_backend(kind)
    with pytest.raises(PreconditionViolation, match="row 3 is stored already"):
        backend.insert(3)
    for row in (M, -1):  # -1 would otherwise store row M - 1 under the name -1
        with pytest.raises(NotFound, match=f"row {row} is not a row of X"):
            backend.insert(row)
    assert backend._index.count == START and len(backend._row_of) == START
    backend.retire(3)
    assert backend._index.count == START - 1


@pytest.mark.parametrize("kind", ["aipe", "afn"])
def test_an_all_zero_query_proposes_nothing_and_draws_nothing(kind):
    backend = make_backend(kind)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert backend.propose(np.zeros((D, D)), rng) is None
    assert rng.bit_generator.state == state
