"""Positive-search trees against linear-scan and rebuild oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsekit.errors import NoPositiveEntry, NumericalWarning
from sparsekit.linalg import VectorFamily
from sparsekit.psearch import BatchedVectorSearchTree, MatrixSearchTree


def scan_positive_indices(mats, A):
    """Linear-scan oracle: all indices with a strictly positive inner product."""
    return [i for i, M in enumerate(mats) if float(np.vdot(M, A)) > 0.0]


def random_sparse_matrices(m, d, rng, density=0.3):
    out = []
    for _ in range(m):
        M = rng.standard_normal((d, d))
        M[rng.random((d, d)) > density] = 0.0
        out.append(M)
    return out


class TestMatrixTreeInit:
    def test_singleton(self):
        tree = MatrixSearchTree([np.array([[1.0]])])
        assert tree.root_sum == np.array([[1.0]])

    def test_three_leaves_direct_sums(self):
        tree = MatrixSearchTree([[[2.0]], [[-1.0]], [[3.0]]])
        assert tree.root_sum[0, 0] == pytest.approx(4.0)
        # the left internal node covers leaves 0..1
        assert tree.node_matrix(2)[0, 0] == pytest.approx(1.0)

    def test_prefix_sum_oracle(self, rng):
        mats = random_sparse_matrices(64, 8, rng)
        tree = MatrixSearchTree(mats)
        prefix = np.cumsum(np.stack([np.zeros((8, 8))] + mats), axis=0)
        cap = tree._capacity
        for node in range(1, 2 * cap):
            level_size = cap // (1 << (node.bit_length() - 1))
            first = (node - (1 << (node.bit_length() - 1))) * level_size
            last = min(first + level_size, 64)
            first = min(first, 64)
            expected = prefix[last] - prefix[first]
            assert np.allclose(tree.node_matrix(node), expected, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatrixSearchTree([])


class TestMatrixTreeQuery:
    def test_single_leaf(self):
        tree = MatrixSearchTree([np.array([[1.0]])])
        assert tree.query_positive(np.array([[1.0]])) == 0

    def test_two_positive_candidates(self):
        mats = [
            np.array([[2.0, 0.0], [0.0, 0.0]]),
            np.array([[-1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, 3.0]]),
        ]
        tree = MatrixSearchTree(mats)
        positives = scan_positive_indices(mats, np.eye(2))
        assert positives == [0, 2]
        assert tree.query_positive(np.eye(2)) in positives

    def test_random_queries_verified_by_scan(self, rng):
        mats = random_sparse_matrices(256, 4, rng, density=0.8)
        tree = MatrixSearchTree(mats)
        total = sum(mats)
        done = 0
        while done < 100:
            A = rng.standard_normal((4, 4))
            if float(np.vdot(total, A)) <= 0.0:
                A = -A
            idx = tree.query_positive(A)
            assert float(np.vdot(mats[idx], A)) > 0.0
            assert tree.last_query_ip_count <= 2 * int(np.ceil(np.log2(256))) + 1
            done += 1

    def test_promise_violation_reported(self):
        mats = [np.array([[-1.0]]), np.array([[-2.0]])]
        tree = MatrixSearchTree(mats)
        with pytest.raises(NoPositiveEntry):
            tree.query_positive(np.array([[1.0]]))


class TestVectorTreeInit:
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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BatchedVectorSearchTree(VectorFamily(np.zeros((0, 3))))


class TestVectorTreeQuery:
    def test_only_positive_diagonal(self):
        fam = VectorFamily(np.eye(2))
        tree = BatchedVectorSearchTree(fam)
        assert tree.query_positive(np.diag([1.0, -3.0])) == 0
        assert tree.query_positive(np.diag([-1.0, 5.0])) == 1

    def test_random_queries_verified_by_scan(self, rng):
        d = 4
        V = rng.standard_normal((8 * d, d))
        fam = VectorFamily(V)
        tree = BatchedVectorSearchTree(fam)
        total = V.T @ V
        for _ in range(100):
            A = rng.standard_normal((d, d))
            if float(np.vdot(total, A)) <= 0.0:
                A = -A
            idx = tree.query_positive(A)
            assert float(V[idx] @ A @ V[idx]) > 0.0
            assert tree.last_query_ip_count <= 2 * int(np.ceil(np.log2(8 * d))) + 1

    def test_padding_never_returned(self, rng):
        # m not divisible by d: padded slots have zero diagonal entries
        V = rng.standard_normal((7, 4))
        tree = BatchedVectorSearchTree(VectorFamily(V))
        for _ in range(50):
            A = rng.standard_normal((4, 4))
            A = A + A.T + 8 * np.eye(4)
            idx = tree.query_positive(A)
            assert 0 <= idx < 7

    def test_promise_violation_reported(self):
        fam = VectorFamily(np.eye(2))
        tree = BatchedVectorSearchTree(fam)
        with pytest.raises(NoPositiveEntry):
            tree.query_positive(-np.eye(2))


class TestSoundnessProperty:
    def test_inner_products_bounded_by_path_length(self, rng):
        for m, d in [(64, 3), (128, 5)]:
            mats = random_sparse_matrices(m, d, rng, density=0.9)
            tree = MatrixSearchTree(mats)
            total = sum(mats)
            for _ in range(20):
                A = rng.standard_normal((d, d))
                if float(np.vdot(total, A)) <= 0.0:
                    A = -A
                tree.query_positive(A)
                assert tree.last_query_ip_count <= 2 * int(np.ceil(np.log2(m))) + 1


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


@st.composite
def matrices_and_query(draw):
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    return list(draw(int_arrays((m, d, d)))), draw(int_arrays((d, d)))


class TestWitnessProperty:
    """Whenever the total <sum_i M_i, A> is positive, query_positive returns a
    witness i with <M_i, A> > 0, and never warns of roundoff."""

    @settings(max_examples=100, deadline=None)
    @given(vector_family_and_query())
    def test_vector_tree(self, case):
        V, A = case
        total = float(np.vdot(V.T @ V, A))
        assume(total != 0.0)
        A = A if total > 0.0 else -A
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            idx = BatchedVectorSearchTree(VectorFamily(V)).query_positive(A)
        assert 0 <= idx < len(V) and float(V[idx] @ A @ V[idx]) > 0.0

    @settings(max_examples=100, deadline=None)
    @given(matrices_and_query())
    def test_matrix_tree(self, case):
        mats, A = case
        total = float(np.vdot(sum(mats), A))
        assume(total != 0.0)
        A = A if total > 0.0 else -A
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            idx = MatrixSearchTree(mats).query_positive(A)
        assert 0 <= idx < len(mats) and float(np.vdot(mats[idx], A)) > 0.0
