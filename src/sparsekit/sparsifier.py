"""Deterministic linear-sized spectral sparsification.

Both variants run the same two-barrier greedy loop of Batson, Spielman and
Srivastava ("Twice-Ramanujan Sparsifiers"): from u_0 = -ell_0 = d/eps the
upper barrier steps by 1 and the lower one by 1/(1 + 2 eps), the gap matrix
Q = L_t - U_t is formed from one eigendecomposition of the accumulator, and
an index with v^T Q v > 0 is selected and added with weight 1/(c_t d).  The
variants differ only in how they find that index, each step through
linalg.propose_or_scan.  The loop itself does O(d^3) work per iteration and
never touches all m rows: the trace's gap sum is <G, Q> with G the family's
Gram matrix, computed once.  The reference variant only scans, in row order
(`_first_witness`).  The fast variant asks a positive-search tree, at
O(d^2 log m) per iteration.  An nnz-based cost model picks the tree's leaf
size: d vectors per leaf (the vector tree) when no vector has a zero entry,
else one (the matrix tree).  Everything is deterministic: reruns on equal
input produce identical selections.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierViolation, ConfigError, IsotropyViolation, NoWitness, NumericalWarning
from .linalg import VectorFamily, WeightedSelection, check_symmetric, eigendecompose, is_identity
from .linalg import propose_or_scan, quadratic_forms
from .psearch import BatchedVectorSearchTree, MatrixSearchTree

__all__ = ["BssTrace", "SparsifierReport", "bss_reference", "sparsify_fast", "verify_sparsifier"]

SCAN_CHUNK = 64  # rows in the reference scan's first chunk; each later chunk doubles
MAX_STEPS = 100_000  # the most barrier steps T = ceil(d/eps^2) a solve may take


@dataclass
class BssTrace:
    """Per-iteration diagnostics for the barrier walk."""

    upper_potentials: list = field(default_factory=list)
    lower_potentials: list = field(default_factory=list)
    gap_sums: list = field(default_factory=list)
    fallbacks: int = 0
    tree_kind: str = "scan"
    barrier_contained: bool = True
    rows_read: int = 0  # forms _first_witness read, for the reference or a fast fallback

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
    phi_u_prev, phi_u_cur, neg_l_prev, neg_l_cur = eig.potentials(u_prev, u_cur, l_prev, l_cur)
    phi_l_prev, phi_l_cur = -neg_l_prev, -neg_l_cur
    lower_gaps = vals - l_cur
    upper_gaps = u_cur - vals
    if lower_gaps[0] <= 0.0 or upper_gaps[-1] <= 0.0:
        raise BarrierViolation("accumulator spectrum escaped the barrier corridor")
    L = eig.weighted(lower_gaps**-2.0 / (phi_l_cur - phi_l_prev) - lower_gaps**-1.0)
    U = eig.weighted(upper_gaps**-2.0 / (phi_u_prev - phi_u_cur) + upper_gaps**-1.0)
    return L, U, phi_u_prev, phi_l_prev


def _check_input(family: VectorFamily, epsilon: float) -> np.ndarray:
    """Refuse a bad epsilon, T > MAX_STEPS or a non-isotropic family; return its Gram matrix."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon={epsilon} violates 0 < epsilon < 1")
    steps = family.dim / epsilon**2 if epsilon**2 > 0.0 else math.inf
    if steps > MAX_STEPS:  # T = ceil(steps) > MAX_STEPS
        raise ConfigError(
            f"epsilon={epsilon} at d={family.dim} asks for T = ceil(d/epsilon^2) = "
            f"{steps:.6g} barrier steps, more than MAX_STEPS = {MAX_STEPS}"
        )
    with np.errstate(over="ignore"):  # an overflowed entry is inf, which is not I
        G = family.gram()
    if not is_identity(G):
        raise IsotropyViolation(
            "family is not isotropic: sum of outer products differs from I"
        )
    return G


def _first_witness(V: np.ndarray, Qgap: np.ndarray, trace: BssTrace) -> int:
    """The first row i with v_i^T Qgap v_i > 0, read in chunks of 64, 128, 256, ... rows.

    Strictly positive: a zero row, which isotropy allows, has form 0 and
    step scale 0, so it is never taken.  The scan stops at the first chunk
    that holds a witness, so a witness at row k costs O(k d^2); with none,
    the chunks cover the m rows once, in O(log m) products.  Each row read
    counts in trace.rows_read.  A chunk's product may round its last bits
    unlike the whole m x d product, so the two can disagree only on a row
    whose form is within roundoff of 0.
    """
    m = len(V)
    start, size = 0, SCAN_CHUNK
    while start < m:
        stop = min(start + size, m)
        hits = start + np.flatnonzero(quadratic_forms(V[start:stop], Qgap) > 0.0)
        trace.rows_read += stop - start
        if hits.size:
            return int(hits[0])
        start, size = stop, 2 * size
    raise NoWitness("no index witnesses the barrier gap")


def _run_barrier_loop(family: VectorFamily, epsilon: float, kind: str):
    """The loop both variants share; `kind` is "scan", or the tree to ask.

    The barriers step by delta_u = 1 and delta_l = 1/(1 + 2 eps) for
    T = ceil(d/eps^2) steps, so u_T = d/eps + T and ell_T = -d/eps + T
    delta_l.  A witness's step scale c = v^T (L + U) v / 2 exceeds
    v^T U v > 0, as U is positive definite; a c <= 0 raises BarrierViolation.
    """
    G = _check_input(family, epsilon)
    d = family.dim
    V = family.vectors
    trace = BssTrace(tree_kind=kind)
    trees = {"vector": BatchedVectorSearchTree, "matrix": MatrixSearchTree}
    propose = trees[kind](family).query_positive if kind in trees else None

    def verify(j, Qgap):
        form = float(V[j] @ Qgap @ V[j])
        return form, form > 0.0

    def scan(Qgap):
        if kind != "scan":  # the tree's answer failed, so warn before the fallback scan
            warnings.warn("positive search found no witness; scanning", NumericalWarning)
        return _first_witness(V, Qgap, trace), None

    T = math.ceil(d / epsilon**2)
    u, ell = d / epsilon, -d / epsilon
    delta_u, delta_l = 1.0, 1.0 / (1.0 + 2.0 * epsilon)
    A = np.zeros((d, d))
    weights = np.zeros(family.count)
    for t in range(1, T + 1):
        u_next, ell_next = u + delta_u, ell + delta_l
        L, U, phi_u, phi_l = _barrier_matrices(A, u, u_next, ell, ell_next)
        Qgap = L - U
        gap_sum = float(np.vdot(G, Qgap))  # = sum_i v_i^T Qgap v_i
        j, _, fell_back = propose_or_scan(propose, verify, scan, Qgap)
        trace.fallbacks += fell_back
        v = V[j]
        c = 0.5 * float(v @ (L + U) @ v)
        if c <= 0.0:
            raise BarrierViolation(f"step {t}: step scale c={c} is not > 0, so U is not definite")
        A = A + v[:, None] * v / c  # np.outer(v, v) computes this same product
        weights[j] += 1.0 / (c * d)
        u, ell = u_next, ell_next
        trace.record(phi_u, phi_l, gap_sum)
    check_symmetric(A)
    final = eigendecompose(A)
    final_vals = final.eigenvalues
    phi_u, neg_l = final.potentials(u, ell)
    trace.record(phi_u, -neg_l, math.nan)
    trace.barrier_contained = bool(ell < final_vals[0] and final_vals[-1] < u)
    chosen = np.flatnonzero(weights > 0.0)
    selection = WeightedSelection(chosen, weights[chosen])
    return selection, A / d, trace


def bss_reference(family: VectorFamily, epsilon: float):
    """Two-barrier greedy whose every pick is the first witness in row order.

    trace.rows_read counts the quadratic forms `_first_witness` evaluated.
    Returns (selection, A_final, trace) with A_final = A_T / d; every
    eigenvalue of A_T lies strictly between the final barriers ell_T and u_T
    (trace.barrier_contained), so lambda_max / lambda_min < u_T / ell_T when
    ell_T > 0 (ROADMAP.md, item 1).
    """
    return _run_barrier_loop(family, epsilon, "scan")


def choose_tree(family: VectorFamily) -> str:
    """Cost-model branch: "vector" iff no vector has a zero entry.

    The model picks the vector tree iff m d^2 <= sum_i nnz(v_i)^2, d^2 being
    d^(w-1) at the cubic matrix-multiplication exponent w = 3, the only one
    numpy offers.  Since nnz(v_i) <= d, that sum is at most m d^2, with
    equality only when every entry is nonzero, so the rule reduces to one
    test over the entries.
    """
    return "vector" if family.vectors.all() else "matrix"


def sparsify_fast(family: VectorFamily, epsilon: float):
    """Tree-accelerated variant of the same loop, with the same barrier guarantee.

    Each iteration asks the tree only: one root-to-leaf descent of
    O(d^2 log m) plus the O(d^2) check v_j^T Q v_j > 0 of its answer j.  A
    fallback warns NumericalWarning first, then takes the reference's pick.
    Raises ConfigError when the tree's nodes would not fit in physical
    memory: the tree's own build refuses it before allocating (see psearch).
    """
    return _run_barrier_loop(family, epsilon, choose_tree(family))


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
    """Reconstruct the weighted sum and test it against (1 - eps - 2 eps^2, 1 + eps).

    The loop does not deliver that window yet (ROADMAP.md, item 1); its
    guarantee is trace.barrier_contained.
    """
    A = selection.reconstruct(family)
    vals = np.linalg.eigvalsh(A)
    lo = 1.0 - epsilon - 2.0 * epsilon**2
    hi = 1.0 + epsilon
    lam_min, lam_max = float(vals[0]), float(vals[-1])
    passed = lo < lam_min and lam_max < hi
    return SparsifierReport(lam_min, lam_max, selection.support_size, lo, hi, passed)
