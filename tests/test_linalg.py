"""Vector-family kernels and the eigendecomposition against direct oracles."""

import numpy as np
import pytest

from sparsekit.errors import DimensionMismatch, PreconditionViolation, SingularGram
from sparsekit.linalg import (
    ISOTROPY_TOL,
    VectorFamily,
    WeightedSelection,
    check_isotropy,
    check_symmetric,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_pi_is_precondition_violation(self, rng, bad):
        pi = np.full(30, 0.5)
        pi[3] = bad
        with pytest.raises(PreconditionViolation, match="finite and nonnegative"):
            whiten(VectorFamily(rng.standard_normal((30, 3))), pi)


class TestCheckIsotropy:
    def test_basis_true(self):
        fam = VectorFamily(np.eye(2))
        assert check_isotropy(fam)
        assert np.linalg.norm(fam.gram() - np.eye(2)) <= 1e-12

    def test_repeated_vector_false(self):
        fam = VectorFamily(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert not check_isotropy(fam)

    def test_whitened_family_true(self, rng):
        fam = whiten(VectorFamily(rng.standard_normal((100, 5))))
        assert check_isotropy(fam)
        assert np.linalg.norm(fam.gram() - np.eye(5)) <= 1e-8

    def test_weighted_by_pi(self, rng):
        pi = rng.uniform(0.1, 0.9, 100)
        fam = whiten(VectorFamily(rng.standard_normal((100, 5))), pi)
        assert check_isotropy(fam, pi=pi)
        assert not check_isotropy(fam)

    def test_pi_as_a_list(self):
        fam = VectorFamily(np.eye(2))
        assert check_isotropy(fam, pi=[1.0, 1.0])
        assert not check_isotropy(fam, pi=[1.0, 2.0])

    @pytest.mark.parametrize("factor, isotropic", [(0.5, True), (2.0, False)])
    def test_tolerance_boundary(self, factor, isotropic):
        # gram = diag(1 + a, 1), at Frobenius distance a from I
        a = factor * ISOTROPY_TOL
        fam = VectorFamily(np.diag([np.sqrt(1.0 + a), 1.0]))
        assert check_isotropy(fam) is isotropic


class TestEigenDecomposition:
    def test_reconstruction_and_orthogonality(self, rng):
        A = random_symmetric(6, rng)
        eig = eigendecompose(A)
        assert np.linalg.norm(eig.weighted(eig.eigenvalues) - A) <= 1e-8 * np.linalg.norm(A)
        QtQ = eig.eigenvectors.T @ eig.eigenvectors
        assert np.linalg.norm(QtQ - np.eye(6)) <= 1e-8
        assert np.all(np.diff(eig.eigenvalues) >= 0)

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_potential_and_inverse_match_the_resolvent(self, rng, side):
        # a barrier above the spectrum (upper) or below it (lower)
        A = random_symmetric(5, rng)
        eig = eigendecompose(A)
        vals = eig.eigenvalues
        b = vals[-1] + 0.7 if side == "upper" else vals[0] - 0.7
        resolvent = np.linalg.inv(b * np.eye(5) - A)
        assert eig.potential(b) == pytest.approx(np.trace(resolvent), rel=1e-10)
        assert np.allclose(eig.weighted(1.0 / (b - vals)), resolvent, rtol=0, atol=1e-10)
        assert np.allclose(eig.weighted((b - vals) ** -2.0), resolvent @ resolvent, atol=1e-10)

    def test_lower_potential_is_the_negated_potential_bit_for_bit(self, rng):
        eig = eigendecompose(random_symmetric(7, rng))
        ell = eig.eigenvalues[0] - 0.3
        assert -eig.potential(ell) == float(np.sum(1.0 / (eig.eigenvalues - ell)))

    def test_check_symmetric(self, rng):
        A = random_symmetric(4, rng)
        check_symmetric(A)
        A[0, 3] += 1e-6
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            check_symmetric(A)
        A[0, 3] = np.nan
        with pytest.raises(PreconditionViolation, match="non-finite"):
            check_symmetric(A)


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
