"""The BSS barrier loop: what each iteration scans, its trace, its rescue, its memory guard."""

import math

import numpy as np
import pytest

from sparsekit import sparsifier
from sparsekit.errors import ConfigError, NumericalWarning
from sparsekit.psearch import MatrixSearchTree

from conftest import paired_angle_family, random_isotropic_family

SOLVERS = {"reference": sparsifier.bss_reference, "fast": sparsifier.sparsify_fast}


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

    monkeypatch.setattr(sparsifier, "_row_quadratic_forms", scan)
    selection, _, trace = sparsifier.sparsify_fast(family, 0.5)
    assert trace.tree_kind == kind
    assert trace.fallbacks == 0
    assert selection.support_size > 0
    with pytest.raises(AssertionError, match="scanned"):
        sparsifier.bss_reference(family, 0.5)


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
def test_nonpositive_step_scale_is_rescued_with_the_first_good_witness(monkeypatch, variant):
    """Break U's definiteness on the last iteration along coordinate 0.

    U' = U - s e0 e0^T makes v^T (L + U') v negative and v^T (L - U') v
    large for every row on coordinates (0,1), which come first, so both
    variants pick row 0 and get c <= 0.  Rows on other coordinates keep
    their gap and step scale.
    """
    family = paired_angle_family(8, 6)
    V = family.vectors
    T = math.ceil(family.dim / 0.5**2)
    e0 = np.zeros(family.dim)
    e0[0] = 1.0

    def break_definiteness(call, A, L, U):
        return U - 1e6 * np.outer(e0, e0) if call == T else U

    calls = record_barrier_calls(monkeypatch, break_definiteness)
    with pytest.warns(NumericalWarning, match="nonpositive step scale"):
        _, A_final, trace = SOLVERS[variant](family, 0.5)
    assert trace.fallbacks == 1

    A_prev, L, U = calls[-1]
    expected = None
    for i, v in enumerate(V):
        if float(v @ (L - U) @ v) >= 0.0 and float(v @ (L + U) @ v) > 0.0:
            expected = i
            break
    assert expected is not None and expected >= 6  # not a row on coordinates (0,1)
    v = V[expected]
    step = np.outer(v, v) / (0.5 * float(v @ (L + U) @ v))
    np.testing.assert_allclose(A_final * family.dim - A_prev, step, rtol=1e-9, atol=1e-12)


def test_matrix_tree_that_cannot_fit_is_refused_before_allocation(monkeypatch):
    family = paired_angle_family(8, 12)
    d = family.dim
    assert family.count == 48 and sparsifier.choose_tree(family) == "matrix"

    def no_build(self, family):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(MatrixSearchTree, "__init__", no_build)
    monkeypatch.setattr(sparsifier, "_physical_memory_bytes", lambda: 1 << 10)
    needed = 16 * 64 * d * d  # the nodes alone: capacity 64 for m = 48
    with pytest.raises(ConfigError, match=f"needs {needed} bytes"):
        sparsifier.sparsify_fast(family, 0.5)
