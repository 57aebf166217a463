"""Positive-search trees against linear-scan and prefix-sum oracles.

Both kinds are one tree over a vector family that differs only in how many
vectors a leaf holds (one for the matrix tree, d for the batched tree), so
the cases in the `_...Cases` bases run on both.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsekit.errors import NoPositiveEntry, NumericalWarning
from sparsekit.linalg import VectorFamily
from sparsekit.psearch import BatchedVectorSearchTree, MatrixSearchTree


def scan_positive_indices(V, A):
    """Linear-scan oracle: all indices with a strictly positive v^T A v."""
    return [i for i, v in enumerate(V) if float(v @ A @ v) > 0.0]


def random_sparse_vectors(m, d, rng, density=0.3):
    V = rng.standard_normal((m, d))
    V[rng.random((m, d)) > density] = 0.0
    return V


def positive_query(V, d, rng):
    """A random d x d query whose total sum_i v_i^T A v_i is positive."""
    A = rng.standard_normal((d, d))
    return A if float(np.vdot(V.T @ V, A)) > 0.0 else -A


def ip_bound(m):
    return 2 * int(np.ceil(np.log2(m))) + 1


class _InitCases:
    Tree = None

    def test_singleton(self):
        tree = self.Tree(VectorFamily(np.array([[1.0]])))
        assert tree.root_sum == np.array([[1.0]])

    def test_prefix_sum_oracle(self, rng):
        # m = 61 is a multiple of neither block, so both trees pad
        m, d = 61, 4
        V = random_sparse_vectors(m, d, rng)
        tree = self.Tree(VectorFamily(V))
        outer = np.einsum("ij,ik->ijk", V, V)
        prefix = np.cumsum(np.concatenate([np.zeros((1, d, d)), outer]), axis=0)
        cap = tree._capacity
        for level in range(cap.bit_length()):
            width = tree.block << level  # vectors under one node at this level
            for j in range(cap >> level):
                first, last = min(j * width, m), min((j + 1) * width, m)
                expected = prefix[last] - prefix[first]
                assert np.allclose(tree.level_sum(level, j), expected, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.Tree(VectorFamily(np.zeros((0, 3))))


class TestMatrixTreeInit(_InitCases):
    Tree = MatrixSearchTree

    def test_three_leaves_direct_sums(self):
        V = np.array([[1.0, 1.0], [0.0, 2.0], [3.0, 0.0]])
        tree = self.Tree(VectorFamily(V))
        np.testing.assert_allclose(tree.root_sum, [[10.0, 1.0], [1.0, 5.0]])
        # the left internal node covers leaves 0..1
        np.testing.assert_allclose(tree.level_sum(1, 0), [[1.0, 1.0], [1.0, 5.0]])


class TestVectorTreeInit(_InitCases):
    Tree = BatchedVectorSearchTree

    def test_basis_single_leaf(self):
        fam = VectorFamily(np.eye(3))
        tree = BatchedVectorSearchTree(fam)
        assert np.allclose(tree.level_sum(0, 0), np.eye(3))

    def test_two_blocks_merge(self, rng):
        d = 3
        V = rng.standard_normal((2 * d, d))
        tree = BatchedVectorSearchTree(VectorFamily(V))
        assert np.allclose(tree.root_sum, V.T @ V, atol=1e-9)

    def test_all_level_sums_match_direct_summation(self, rng):
        d = 4
        m = 16 * d
        V = rng.standard_normal((m, d))
        tree = BatchedVectorSearchTree(VectorFamily(V))
        blocks = m // d
        level = 0
        width = 1
        while width <= blocks:
            for j in range(blocks // width):
                rows = V[j * width * d : (j + 1) * width * d]
                expected = rows.T @ rows
                assert np.allclose(tree.level_sum(level, j), expected, atol=1e-9)
            level += 1
            width *= 2


class _QueryCases:
    Tree = None

    def test_random_queries_verified_by_scan(self, rng):
        m, d = 256, 4
        V = random_sparse_vectors(m, d, rng, density=0.8)
        tree = self.Tree(VectorFamily(V))
        for _ in range(100):
            A = positive_query(V, d, rng)
            idx = tree.query_positive(A)
            assert idx in scan_positive_indices(V, A)
            assert tree.last_query_ip_count <= ip_bound(m)

    def test_padding_never_returned(self, rng):
        # m = 7 is a multiple of neither block: padded slots are zero vectors
        V = rng.standard_normal((7, 4))
        tree = self.Tree(VectorFamily(V))
        for _ in range(50):
            A = rng.standard_normal((4, 4))
            A = A + A.T + 8 * np.eye(4)
            idx = tree.query_positive(A)
            assert 0 <= idx < 7

    def test_promise_violation_reported(self):
        tree = self.Tree(VectorFamily(np.eye(2)))
        with pytest.raises(NoPositiveEntry):
            tree.query_positive(-np.eye(2))


class TestMatrixTreeQuery(_QueryCases):
    Tree = MatrixSearchTree

    def test_single_leaf(self):
        tree = MatrixSearchTree(VectorFamily(np.array([[1.0]])))
        assert tree.query_positive(np.array([[1.0]])) == 0

    def test_two_positive_candidates(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        A = np.diag([1.0, -1.0])
        tree = MatrixSearchTree(VectorFamily(V))
        positives = scan_positive_indices(V, A)
        assert positives == [0, 2]
        assert tree.query_positive(A) in positives


class TestVectorTreeQuery(_QueryCases):
    Tree = BatchedVectorSearchTree

    def test_only_positive_diagonal(self):
        fam = VectorFamily(np.eye(2))
        tree = BatchedVectorSearchTree(fam)
        assert tree.query_positive(np.diag([1.0, -3.0])) == 0
        assert tree.query_positive(np.diag([-1.0, 5.0])) == 1


class TestSoundnessProperty:
    def test_inner_products_bounded_by_path_length(self, rng):
        for Tree in (MatrixSearchTree, BatchedVectorSearchTree):
            for m, d in [(64, 3), (128, 5)]:
                V = random_sparse_vectors(m, d, rng, density=0.9)
                tree = Tree(VectorFamily(V))
                for _ in range(20):
                    tree.query_positive(positive_query(V, d, rng))
                    assert tree.last_query_ip_count <= ip_bound(m)


# Small integer entries keep every node sum and inner product exact in
# float64, so a positive total always has a witness and no descent may need
# the roundoff fallback.
SMALL_INTS = st.integers(-3, 3).map(float)


def int_arrays(shape):
    return arrays(np.float64, shape, elements=SMALL_INTS)


@st.composite
def vector_family_and_query(draw):
    m, d = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    return draw(int_arrays((m, d))), draw(int_arrays((d, d)))


def witness_found(Tree, V, A) -> bool:
    """Whenever the total sum_i v_i^T A v_i is positive, query_positive
    returns a witness i with v_i^T A v_i > 0, and never warns of roundoff."""
    total = float(np.vdot(V.T @ V, A))
    assume(total != 0.0)
    A = A if total > 0.0 else -A
    with warnings.catch_warnings():
        warnings.simplefilter("error", NumericalWarning)
        idx = Tree(VectorFamily(V)).query_positive(A)
    return 0 <= idx < len(V) and float(V[idx] @ A @ V[idx]) > 0.0


class TestWitnessProperty:
    @settings(max_examples=100, deadline=None)
    @given(vector_family_and_query())
    def test_vector_tree(self, case):
        assert witness_found(BatchedVectorSearchTree, *case)

    @settings(max_examples=100, deadline=None)
    @given(vector_family_and_query())
    def test_matrix_tree(self, case):
        assert witness_found(MatrixSearchTree, *case)
