"""Deterministic positive inner-product search trees.

Two variants over a family of d x d summands M_i (or outer products
v_i v_i^T): a per-item matrix tree, and a batched tree whose leaves each
pack d consecutive vectors into a single d x d block.  Both answer the same
query: given A with sum_i <M_i, A> > 0, return an index i with
<M_i, A> > 0, touching one root-to-leaf path.

Queries are read-only and safe to run concurrently; updates require
exclusive access (single-writer, multi-reader).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatch, NoPositiveEntry, NumericalWarning
from .linalg import VectorFamily

__all__ = ["MatrixSearchTree", "BatchedVectorSearchTree"]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _descend(ip_left: float, ip_right: float) -> int:
    """Child choice shared by both trees.

    Ties (both positive) go left for reproducible traces.  A child at
    exactly 0 with a positive sibling goes to the sibling.  Both
    nonpositive returns -1: impossible in exact arithmetic when the parent
    is positive, so the caller treats it as roundoff.
    """
    if ip_left > 0.0:
        return 0
    if ip_right > 0.0:
        return 1
    return -1


class _PartialSumTree:
    """Heap of d x d partial sums (node k over 2k and 2k+1, root at 1) with
    the descent both trees share; subclasses fill `_nodes`."""

    dim: int
    _capacity: int
    _nodes: np.ndarray

    @property
    def root_sum(self) -> np.ndarray:
        return self._nodes[1]

    def _descend_to_leaf(self, A):
        """One root-to-leaf walk toward positive inner products with A.

        Returns (A as a float array, the leaf's node index, the root's inner
        product, whether a step had to break a roundoff tie), and leaves the
        number of inner products taken in last_query_ip_count.
        """
        A = np.asarray(A, dtype=float)
        if A.shape != (self.dim, self.dim):
            raise DimensionMismatch("query matrix has wrong shape")
        self.last_query_ip_count = 0
        root_ip = float(np.vdot(self._nodes[1], A))
        suspicious = False
        k = 1
        while k < self._capacity:
            p1 = float(np.vdot(self._nodes[2 * k], A))
            p2 = float(np.vdot(self._nodes[2 * k + 1], A))
            self.last_query_ip_count += 2
            branch = _descend(p1, p2)
            if branch < 0:
                if root_ip <= 0.0:
                    raise NoPositiveEntry(
                        "promise violated: no subtree has positive inner product"
                    )
                # roundoff: parent positive but both children <= 0
                branch = 0 if p1 >= p2 else 1
                suspicious = True
            k = 2 * k + branch
        return A, k, root_ip, suspicious


class MatrixSearchTree(_PartialSumTree):
    """Complete binary tree of partial sums over a sequence of d x d matrices.

    The heap layout follows the classic array segment tree: node k has
    children 2k and 2k+1, leaves live at [capacity, capacity + m).  Unused
    padding leaves hold zero matrices and can never be returned by a query
    (their inner products are exactly 0, never strictly positive).
    """

    def __init__(self, matrices):
        mats = [np.asarray(M, dtype=float) for M in matrices]
        if not mats:
            raise ValueError("need at least one matrix")
        d = mats[0].shape[0]
        for M in mats:
            if M.shape != (d, d):
                raise DimensionMismatch(f"all matrices must be {d}x{d}, got {M.shape}")
        self.m = len(mats)
        self.dim = d
        self._capacity = _next_pow2(self.m)
        self._nodes = np.zeros((2 * self._capacity, d, d))
        self._nodes[self._capacity : self._capacity + self.m] = np.stack(mats)
        for k in range(self._capacity - 1, 0, -1):
            self._nodes[k] = self._nodes[2 * k] + self._nodes[2 * k + 1]
        self.last_query_ip_count = 0

    @staticmethod
    def node_bytes(m: int, d: int) -> int:
        """Bytes of the float64 node array a tree over m d x d matrices holds."""
        return 16 * _next_pow2(m) * d * d

    def leaf(self, i: int) -> np.ndarray:
        if not 0 <= i < self.m:
            raise IndexError(f"leaf index {i} out of range for m={self.m}")
        return self._nodes[self._capacity + i]

    def node_matrix(self, k: int) -> np.ndarray:
        return self._nodes[k]

    def query_positive(self, A) -> int:
        """Index i with <M_i, A> > 0, under the promise that the total is > 0."""
        A, k, root_ip, suspicious = self._descend_to_leaf(A)
        leaf_index = k - self._capacity
        if leaf_index < self.m and float(np.vdot(self._nodes[k], A)) > 0.0:
            return leaf_index
        if suspicious:
            warnings.warn(
                "positive-search descent hit roundoff; falling back to scan",
                NumericalWarning,
            )
        return self._scan_fallback(A, root_ip)

    def _scan_fallback(self, A, root_ip: float) -> int:
        for i in range(self.m):
            if float(np.vdot(self._nodes[self._capacity + i], A)) > 0.0:
                return i
        raise NoPositiveEntry(
            f"promise violated: no leaf has positive inner product (root ip={root_ip})"
        )


class BatchedVectorSearchTree(_PartialSumTree):
    """Positive-search tree whose leaves each batch d input vectors.

    Leaf block j stores the d x d matrix V_j of columns
    v_{jd}, ..., v_{jd+d-1}; its node sum is V_j V_j^T.  Internal levels sum
    pairs of blocks.  When m is not a multiple of d the family is padded
    with zero vectors, which are unreturnable (their diagonal entries in the
    leaf product are 0).
    """

    def __init__(self, family: VectorFamily):
        if family.count == 0:
            raise ValueError("empty vector family")
        d = family.dim
        m = family.count
        n_blocks = -(-m // d)
        padded = np.zeros((n_blocks * d, d))
        padded[:m] = family.vectors
        self.m = m
        self.dim = d
        self._capacity = _next_pow2(n_blocks)
        # block j as a d x d matrix with vectors as columns
        self._blocks = np.zeros((self._capacity, d, d))
        for j in range(n_blocks):
            self._blocks[j] = padded[j * d : (j + 1) * d].T
        self._nodes = np.zeros((2 * self._capacity, d, d))
        self._nodes[self._capacity :] = self._blocks @ np.transpose(
            self._blocks, (0, 2, 1)
        )
        for k in range(self._capacity - 1, 0, -1):
            self._nodes[k] = self._nodes[2 * k] + self._nodes[2 * k + 1]
        self.last_query_ip_count = 0

    def level_sum(self, level: int, j: int) -> np.ndarray:
        """Node sum at the given level (0 = leaf blocks), block offset j."""
        depth = self._capacity.bit_length() - 1
        if not 0 <= level <= depth:
            raise IndexError("level out of range")
        return self._nodes[(self._capacity >> level) + j]

    def query_positive(self, A) -> int:
        """Original vector index i with v_i^T A v_i > 0, under the sum promise."""
        A, k, _, suspicious = self._descend_to_leaf(A)
        idx = self._leaf_scan(k - self._capacity, A)
        if idx is not None:
            return idx
        if suspicious:
            warnings.warn(
                "positive-search descent hit roundoff; falling back to scan",
                NumericalWarning,
            )
        for j in range(self._capacity):
            idx = self._leaf_scan(j, A)
            if idx is not None:
                return idx
        raise NoPositiveEntry("promise violated: no vector has positive quadratic form")

    def _leaf_scan(self, j: int, A: np.ndarray):
        V = self._blocks[j]
        diag = np.einsum("ji,jk,ki->i", V, A, V)
        for col in range(self.dim):
            i = j * self.dim + col
            if i < self.m and diag[col] > 0.0:
                return i
        return None
