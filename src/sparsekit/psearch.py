"""Deterministic positive inner-product search trees.

One tree over a vector family: each leaf packs `block` consecutive vectors
v_i as the columns of a d x block matrix V_j and holds the d x d sum
V_j V_j^T; internal nodes sum pairs of children.  Given A with
sum_i v_i^T A v_i > 0, a query returns an index i with v_i^T A v_i > 0,
touching one root-to-leaf path.  The tree has no scan of its own: a descent
that meets two children <= 0, or reaches a leaf holding no witness, raises
NoPositiveEntry, which linalg.propose_or_scan counts as no answer and
replaces with the solver's exact scan.  The two kinds
differ only in the block: the batched tree packs d vectors per leaf, the
matrix tree one, so its leaves are the outer products v_i v_i^T.

A build works out its capacity first and, before it allocates any array,
raises ConfigError when its 2 * capacity float64 d x d nodes (16 capacity d^2
bytes) would not fit in physical memory, whoever builds the tree.

A query leaves the node sums unchanged but writes the tree's
last_query_ip_count, so concurrent queries on one tree race on that
counter: give each thread its own tree, or serialize the queries.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError, DimensionMismatch, NoPositiveEntry
from .linalg import VectorFamily

__all__ = ["MatrixSearchTree", "BatchedVectorSearchTree"]


def _physical_memory_bytes():
    """Installed physical memory in bytes, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


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
        self._capacity = 1 << (n_blocks - 1).bit_length()
        needed = 16 * self._capacity * d * d  # the node array's bytes
        physical = _physical_memory_bytes()
        if physical is not None and needed > physical:
            raise ConfigError(
                f"the {type(self).__name__} over m={m}, d={d} needs {needed} bytes (16*capacity"
                f"*d^2 for its nodes), more than the {physical} bytes of physical memory"
            )
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
        # children 2k, 2k+1 as row k of (2, d^2) pairs: one descent level is one GEMV
        self._pairs = self._nodes.reshape(self._capacity, 2, d * d)
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
        number of inner products taken, 2 per level, is left in
        last_query_ip_count.  Ties (both children positive) go left for
        reproducible traces; a child at exactly 0 with a positive sibling
        goes to the sibling.  Raises NoPositiveEntry when both children of
        a node are <= 0 or the leaf it reaches holds no witness: a broken
        promise, or roundoff, as a positive parent has a positive child.
        """
        A = np.asarray(A, dtype=float)
        if A.shape != (self.dim, self.dim):
            raise DimensionMismatch("query matrix has wrong shape")
        a = A.ravel()
        pairs, capacity, k = self._pairs, self._capacity, 1
        # a one-leaf tree takes no step, so the root is the last inner product
        ip = float(self._nodes[1].ravel() @ a) if capacity == 1 else 0.0
        while k < capacity:
            p1, p2 = pairs[k].dot(a).tolist()
            if p1 > 0.0:
                k, ip = 2 * k, p1
            elif p2 > 0.0:
                k, ip = 2 * k + 1, p2
            else:
                self.last_query_ip_count = 2 * k.bit_length()
                raise NoPositiveEntry(f"no child of node {k} has positive inner product")
        self.last_query_ip_count = 2 * (k.bit_length() - 1)
        j = k - capacity
        if self.block == 1 and ip > 0.0:
            # a one-vector leaf holds v v^T: the walk's last inner product
            # is already its quadratic form (a padding leaf's is exactly 0)
            return j
        # the leaf's first vector with a positive quadratic form; a padding
        # vector is zero, so its form is exactly 0 and it is never returned
        V = self._blocks[j]
        hits = (((A @ V) * V).sum(0) > 0.0).nonzero()[0]
        if not hits.size:
            raise NoPositiveEntry(f"leaf {j} holds no positive quadratic form")
        return j * self.block + int(hits[0])


# Each kind keeps its own query_positive, delegating to the base, because
# the benchmark's tracer wraps every class's own __init__ and query_positive
# and its name check asserts they are entries of the class's own __dict__.


class MatrixSearchTree(_PartialSumTree):
    """Positive-search tree with one vector per leaf: leaf i is v_i v_i^T."""

    def __init__(self, family: VectorFamily):
        super().__init__(family, 1)

    def query_positive(self, A) -> int:
        return super().query_positive(A)


class BatchedVectorSearchTree(_PartialSumTree):
    """Positive-search tree whose leaves each batch d input vectors."""

    def __init__(self, family: VectorFamily):
        super().__init__(family, family.dim)

    def query_positive(self, A) -> int:
        return super().query_positive(A)
