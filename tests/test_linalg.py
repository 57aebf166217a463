"""Vector-family kernels and the eigendecomposition against direct oracles."""

import numpy as np
import pytest

from sparsekit.errors import PreconditionViolation, SingularGram
from sparsekit.linalg import (
    VectorFamily,
    WeightedSelection,
    check_isotropy,
    eigendecompose,
    whiten,
)

from conftest import random_symmetric


class TestWhiten:
    def test_basis_unchanged(self):
        fam = VectorFamily(np.eye(3))
        out = whiten(fam)
        assert np.allclose(out.vectors, np.eye(3))

    def test_diagonal_scaling(self):
        fam = VectorFamily(2.0 * np.eye(3))
        out = whiten(fam)
        assert np.allclose(out.vectors, np.eye(3))

    def test_isotropy_identity(self, rng):
        fam = VectorFamily(rng.standard_normal((50, 4)))
        out = whiten(fam)
        gram = out.gram()
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-8

    def test_weighted_isotropy(self, rng):
        fam = VectorFamily(rng.standard_normal((30, 3)))
        pi = rng.uniform(0.2, 1.0, size=30)
        out = whiten(fam, pi)
        gram = out.vectors.T @ (pi[:, None] * out.vectors)
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-8

    def test_singular_gram(self):
        fam = VectorFamily(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(SingularGram):
            whiten(fam)


class TestCheckIsotropy:
    def test_basis_true(self):
        assert check_isotropy(VectorFamily(np.eye(2)), 1e-12)

    def test_repeated_vector_false(self):
        fam = VectorFamily(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert not check_isotropy(fam, 1e-8)

    def test_whitened_family_true(self, rng):
        fam = whiten(VectorFamily(rng.standard_normal((100, 5))))
        assert check_isotropy(fam, 1e-8)


class TestEigenDecomposition:
    def test_reconstruction_and_orthogonality(self, rng):
        A = random_symmetric(6, rng)
        eig = eigendecompose(A)
        assert np.linalg.norm(eig.reconstruct() - A) <= 1e-8 * np.linalg.norm(A)
        QtQ = eig.eigenvectors.T @ eig.eigenvectors
        assert np.linalg.norm(QtQ - np.eye(6)) <= 1e-8
        assert np.all(np.diff(eig.eigenvalues) >= 0)


class TestWeightedSelection:
    @pytest.mark.parametrize(
        "indices, weights, message",
        [
            ([0, 1], [1.0, 0.0], "strictly positive"),
            ([0, 1], [1.0, -2.0], "strictly positive"),
            ([2, 2], [1.0, 1.0], "distinct"),
        ],
    )
    def test_invalid_selection_is_precondition_violation(self, indices, weights, message):
        with pytest.raises(PreconditionViolation, match=message):
            WeightedSelection(indices, weights)

    @pytest.mark.parametrize("indices", [[0, 3], [-1, 1]])
    def test_out_of_range_is_precondition_violation(self, indices):
        sel = WeightedSelection(indices, [1.0, 1.0])
        with pytest.raises(PreconditionViolation, match="out of range for m=3"):
            sel.reconstruct(VectorFamily(np.eye(3)))
