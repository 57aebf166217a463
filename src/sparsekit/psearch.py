"""Deterministic positive inner-product search trees.

One tree over a vector family: each leaf packs `block` consecutive vectors
v_i as the columns of a d x block matrix V_j and holds the d x d sum
V_j V_j^T; internal nodes sum pairs of children.  Given A with
sum_i v_i^T A v_i > 0, a query returns an index i with v_i^T A v_i > 0,
touching one root-to-leaf path.  The two kinds differ only in the block:
the batched tree packs d vectors per leaf, the matrix tree one, so its
leaves are the outer products v_i v_i^T.

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
    """Child choice at one level of the descent.

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
    """Heap of d x d partial sums (node k over 2k and 2k+1, root at 1) whose
    leaf j holds the `block` vectors j*block, ..., j*block + block - 1.

    The leaf count is a power of two, so the family is padded with zero
    vectors up to capacity * block; their quadratic forms are exactly 0, so
    a query never returns them.
    """

    def __init__(self, family: VectorFamily, block: int):
        m, d = family.count, family.dim
        n_blocks = -(-m // block)
        self.m = m
        self.dim = d
        self.block = block
        self._capacity = _next_pow2(n_blocks)
        padded = np.zeros((self._capacity * block, d))
        padded[:m] = family.vectors
        # leaf j as a d x block matrix with its vectors as columns
        self._blocks = np.ascontiguousarray(
            padded.reshape(self._capacity, block, d).transpose(0, 2, 1)
        )
        self._nodes = np.zeros((2 * self._capacity, d, d))
        np.matmul(
            self._blocks, self._blocks.transpose(0, 2, 1), out=self._nodes[self._capacity :]
        )
        # level [h, 2h) sums its children [2h, 4h) pairwise, one np.add per level
        nodes, h = self._nodes, self._capacity // 2
        while h:
            np.add(nodes[2 * h : 4 * h : 2], nodes[2 * h + 1 : 4 * h : 2], out=nodes[h : 2 * h])
            h //= 2
        # node k as row k of d^2 entries: one descent level is one GEMV
        self._flat = self._nodes.reshape(2 * self._capacity, d * d)
        self.last_query_ip_count = 0

    @property
    def root_sum(self) -> np.ndarray:
        return self._nodes[1]

    def level_sum(self, level: int, j: int) -> np.ndarray:
        """Node sum at the given level (0 = leaves), offset j within it."""
        depth = self._capacity.bit_length() - 1
        if not 0 <= level <= depth:
            raise IndexError("level out of range")
        return self._nodes[(self._capacity >> level) + j]

    def query_positive(self, A) -> int:
        """Index i with v_i^T A v_i > 0, under the promise that the sum is > 0.

        One root-to-leaf walk toward positive inner products with A; the
        number of inner products taken is left in last_query_ip_count.  If
        the leaf it reaches holds no witness, which roundoff alone can cause,
        every leaf is scanned in order.
        """
        A = np.asarray(A, dtype=float)
        if A.shape != (self.dim, self.dim):
            raise DimensionMismatch("query matrix has wrong shape")
        self.last_query_ip_count = 0
        a = A.ravel()
        root_ip = ip = float(self._flat[1] @ a)
        suspicious = False
        k = 1
        while k < self._capacity:
            p1, p2 = (self._flat[2 * k : 2 * k + 2] @ a).tolist()
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
            ip = p2 if branch else p1
        if self.block == 1 and ip > 0.0:
            # a one-vector leaf holds v v^T: the walk's last inner product
            # is already its quadratic form (a padding leaf's is exactly 0)
            return k - self._capacity
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
        raise NoPositiveEntry(
            f"promise violated: no vector has positive quadratic form (root ip={root_ip})"
        )

    def _leaf_scan(self, j: int, A: np.ndarray):
        """First index in leaf j with a positive quadratic form, or None."""
        V = self._blocks[j]
        diag = ((A @ V) * V).sum(0)
        for col in range(self.block):
            i = j * self.block + col
            if i < self.m and diag[col] > 0.0:
                return i
        return None


# Each kind keeps its own query_positive, delegating to the base, because
# the benchmark's tracer wraps every class's own __init__ and query_positive
# and its name check asserts they are entries of the class's own __dict__.


class MatrixSearchTree(_PartialSumTree):
    """Positive-search tree with one vector per leaf: leaf i is v_i v_i^T."""

    def __init__(self, family: VectorFamily):
        super().__init__(family, 1)

    @staticmethod
    def node_bytes(m: int, d: int) -> int:
        """Bytes of the float64 node array a tree over m vectors in R^d holds."""
        return 16 * _next_pow2(m) * d * d

    def query_positive(self, A) -> int:
        return super().query_positive(A)


class BatchedVectorSearchTree(_PartialSumTree):
    """Positive-search tree whose leaves each batch d input vectors."""

    def __init__(self, family: VectorFamily):
        super().__init__(family, family.dim)

    def query_positive(self, A) -> int:
        return super().query_positive(A)
