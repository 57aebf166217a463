"""Deterministic linear-sized spectral sparsification.

Both variants run the same two-barrier greedy loop: barriers u_t, ell_t
advance by fixed increments, the gap matrix Q = L_t - U_t is formed from one
eigendecomposition of the accumulator, and an index with v^T Q v >= 0 is
selected and added with weight 1/(c_t d).  The loop itself does O(d^3)
work per iteration and never touches all m rows: the trace's gap sum is
<G, Q> with G the family's Gram matrix, computed once.  The reference
variant finds the index by a linear scan, one m x d by d x d product per
iteration; the fast variant asks a positive-search tree, at O(d^2 log m)
per iteration.  An nnz-based cost model picks the tree's leaf size: d
vectors per leaf (the vector tree) or one (the matrix tree).  Everything is
deterministic: reruns on equal input produce identical selections.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierViolation, ConfigError, IsotropyViolation, NoWitness, NumericalWarning
from .linalg import VectorFamily, WeightedSelection, check_isotropy, check_symmetric, eigendecompose
from .psearch import BatchedVectorSearchTree, MatrixSearchTree

__all__ = ["BssTrace", "SparsifierReport", "bss_reference", "sparsify_fast", "verify_sparsifier"]


@dataclass
class BssTrace:
    """Per-iteration diagnostics for the barrier walk."""

    upper_potentials: list = field(default_factory=list)
    lower_potentials: list = field(default_factory=list)
    gap_sums: list = field(default_factory=list)
    fallbacks: int = 0
    tree_kind: str = "scan"
    barrier_contained: bool = True

    def record(self, phi_u: float, phi_l: float, gap_sum: float) -> None:
        self.upper_potentials.append(phi_u)
        self.lower_potentials.append(phi_l)
        self.gap_sums.append(gap_sum)


def _barrier_matrices(A: np.ndarray, u_prev, u_cur, l_prev, l_cur):
    """L_t, U_t, and the pre-shift potentials, from one eigendecomposition of A.

    The returned potentials are Phi^{u_prev}(A) and Phi_{l_prev}(A), i.e. the
    invariant sequence Phi^{u_t}(A_t) sampled at the top of the next
    iteration.
    """
    eig = eigendecompose(A)
    vals = eig.eigenvalues
    phi_u_prev = eig.potential(u_prev)
    phi_u_cur = eig.potential(u_cur)
    phi_l_prev = -eig.potential(l_prev)
    phi_l_cur = -eig.potential(l_cur)
    lower_gaps = vals - l_cur
    upper_gaps = u_cur - vals
    if lower_gaps[0] <= 0.0 or upper_gaps[-1] <= 0.0:
        raise BarrierViolation("accumulator spectrum escaped the barrier corridor")
    L = eig.weighted(lower_gaps**-2.0 / (phi_l_cur - phi_l_prev) - lower_gaps**-1.0)
    U = eig.weighted(upper_gaps**-2.0 / (phi_u_prev - phi_u_cur) + upper_gaps**-1.0)
    return L, U, phi_u_prev, phi_l_prev


def _check_input(family: VectorFamily, epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon={epsilon} violates 0 < epsilon < 1")
    if not check_isotropy(family):
        raise IsotropyViolation(
            "family is not isotropic: sum of outer products differs from I"
        )


def _row_quadratic_forms(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v_i^T M v_i for every row v_i of V: one m x d by d x d GEMM, O(m d^2)."""
    return np.einsum("ij,ij->i", V @ M, V)


def _run_barrier_loop(family: VectorFamily, epsilon: float, delta_l: float, pick):
    """Shared loop; `pick(Qgap)` returns an index with v^T Qgap v >= 0.

    Apart from `pick` and the rare c <= 0 rescue, each iteration costs
    O(d^3), independent of the number of rows m.
    """
    d = family.dim
    V = family.vectors
    G = family.gram()
    T = math.ceil(d / epsilon**2)
    u, ell = d / epsilon, -d / epsilon
    delta_u = 1.0
    A = np.zeros((d, d))
    weights = np.zeros(family.count)
    trace = BssTrace()
    for t in range(1, T + 1):
        u_next, ell_next = u + delta_u, ell + delta_l
        L, U, phi_u, phi_l = _barrier_matrices(A, u, u_next, ell, ell_next)
        Qgap = L - U
        gap_sum = float(np.vdot(G, Qgap))  # = sum_i v_i^T Qgap v_i
        j = pick(Qgap)
        c = 0.5 * float(V[j] @ (L + U) @ V[j])
        if c <= 0.0:
            # impossible in exact arithmetic (U is positive definite);
            # rescue the iteration with the first witness whose scale is positive
            warnings.warn("nonpositive step scale; rescanning", NumericalWarning)
            trace.fallbacks += 1
            candidates = np.flatnonzero(_row_quadratic_forms(V, Qgap) >= 0.0)
            if candidates.size == 0:
                raise NoWitness("no index witnesses the barrier gap")
            scales = 0.5 * _row_quadratic_forms(V[candidates], L + U)
            good = candidates[scales > 0.0]
            if good.size == 0:
                raise NoWitness("every gap witness has nonpositive step scale")
            j = int(good[0])
            c = 0.5 * float(V[j] @ (L + U) @ V[j])
        A = A + np.outer(V[j], V[j]) / c
        weights[j] += 1.0 / (c * d)
        u, ell = u_next, ell_next
        trace.record(phi_u, phi_l, gap_sum)
    check_symmetric(A)
    final = eigendecompose(A)
    final_vals = final.eigenvalues
    trace.record(final.potential(u), -final.potential(ell), math.nan)
    trace.barrier_contained = bool(ell < final_vals[0] and final_vals[-1] < u)
    chosen = np.flatnonzero(weights > 0.0)
    selection = WeightedSelection(chosen, weights[chosen])
    return selection, A / d, trace


def bss_reference(family: VectorFamily, epsilon: float):
    """Two-barrier greedy with linear-scan index search.

    Each iteration scans all m rows for the first index with v^T Q v >= 0,
    one m x d by d x d product: O(m d^2) per iteration.  Returns
    (selection, A_final, trace) with A_final = A_T / d, whose spectrum lies
    in (1 - eps - 2 eps^2, 1 + eps).
    """
    _check_input(family, epsilon)
    delta_l = 1.0 / (1.0 + 2.0 * epsilon)
    V = family.vectors

    def pick(Qgap):
        idx = np.flatnonzero(_row_quadratic_forms(V, Qgap) >= 0.0)
        if idx.size == 0:
            raise NoWitness("no index witnesses the barrier gap")
        return int(idx[0])

    return _run_barrier_loop(family, epsilon, delta_l, pick)


def _physical_memory_bytes():
    """Installed physical memory in bytes, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def choose_tree(family: VectorFamily) -> str:
    """Cost-model branch: "vector" iff m d^2 <= sum_i nnz(v_i)^2.

    d^2 is d^(w-1) at the cubic matrix-multiplication exponent w = 3, the
    only one numpy offers.
    """
    m, d = family.count, family.dim
    return "vector" if m * d**2 <= family.nnz_outer_total() else "matrix"


def sparsify_fast(family: VectorFamily, epsilon: float):
    """Tree-accelerated variant; same spectral contract as the reference.

    Each iteration asks the tree only: one root-to-leaf descent of
    O(d^2 log m) plus an O(d^2) cross-check, no scan over the m rows.  The
    slightly smaller lower-barrier step 1/(1+3 eps) funds the strict
    averaging margin that keeps positive search sound under roundoff.

    Raises ConfigError, before allocating anything, when the matrix tree's
    nodes would not fit in physical memory.
    """
    _check_input(family, epsilon)
    delta_l = 1.0 / (1.0 + 3.0 * epsilon)
    kind = choose_tree(family)
    if kind == "vector":
        tree = BatchedVectorSearchTree(family)
    else:
        m, d = family.count, family.dim
        needed = MatrixSearchTree.node_bytes(m, d)
        physical = _physical_memory_bytes()
        if physical is not None and needed > physical:
            raise ConfigError(
                f"the matrix search tree over m={m}, d={d} needs {needed} bytes "
                f"(16*capacity*d^2 for its nodes), more than the {physical} bytes "
                f"of physical memory"
            )
        tree = MatrixSearchTree(family)
    V = family.vectors

    def pick(Qgap):
        j = tree.query_positive(Qgap)
        # O(d^2) soundness cross-check of the tree's answer
        if float(V[j] @ Qgap @ V[j]) < 0.0:
            raise NoWitness("tree returned a non-witness index")
        return j

    selection, A_final, trace = _run_barrier_loop(family, epsilon, delta_l, pick)
    trace.tree_kind = kind
    return selection, A_final, trace


@dataclass
class SparsifierReport:
    lambda_min: float
    lambda_max: float
    support_size: int
    lower_edge: float
    upper_edge: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "support_size": self.support_size,
            "window": [self.lower_edge, self.upper_edge],
            "passed": self.passed,
        }


def verify_sparsifier(
    family: VectorFamily, selection: WeightedSelection, epsilon: float
) -> SparsifierReport:
    """Reconstruct the weighted sum and test it against the proved window."""
    A = selection.reconstruct(family)
    vals = np.linalg.eigvalsh(A)
    lo = 1.0 - epsilon - 2.0 * epsilon**2
    hi = 1.0 + epsilon
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    passed = lo < lam_min and lam_max < hi
    return SparsifierReport(lam_min, lam_max, selection.support_size, lo, hi, passed)
