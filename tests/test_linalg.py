"""Vector-family kernels and the eigendecomposition against direct oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit import expdesign, kadison_singer, sparsifier
from sparsekit.errors import (
    DimensionMismatch,
    IsotropyViolation,
    PreconditionViolation,
    SingularGram,
)
from sparsekit.linalg import (
    ISOTROPY_TOL,
    VectorFamily,
    WeightedSelection,
    check_isotropy,
    check_symmetric,
    eigendecompose,
    quadratic_forms,
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

    @pytest.mark.parametrize(
        "solve",
        [
            lambda fam: sparsifier.bss_reference(fam, 0.5),
            lambda fam: kadison_singer.ks_select(fam, 8, 8),
            lambda fam: expdesign.swap_round(fam, np.full(16, 0.5), 8, 0.2),
        ],
        ids=["sparsify", "ks", "swap_round"],
    )
    def test_every_solver_refuses_a_non_isotropic_family(self, solve):
        # 16 rows of norm 1/sqrt(8), as KS asks at N = 8, all along e0: their
        # sum is 2 e0 e0^T, and e0 e0^T weighted by pi = 1/2
        fam = VectorFamily(np.tile([1.0 / np.sqrt(8.0), 0.0], (16, 1)))
        with pytest.raises(IsotropyViolation):
            solve(fam)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 16), st.floats(0.0, 1.0), st.integers(0, 2**16))
def test_quadratic_forms_are_the_per_row_forms(m, d, zero_share, seed):
    """Over well-conditioned positive definite M (eigenvalues in [1, 4]), so
    that a relative tolerance measures roundoff, not cancellation."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((m, d))
    V[rng.random(m) < zero_share] = 0.0
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = (Q * rng.uniform(1.0, 4.0, d)) @ Q.T
    want = np.array([v @ M @ v for v in V])
    np.testing.assert_allclose(quadratic_forms(V, M), want, rtol=1e-12, atol=0.0)


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
        [phi] = eig.potentials(b)
        assert phi == pytest.approx(np.trace(resolvent), rel=1e-10)
        assert np.allclose(eig.weighted(1.0 / (b - vals)), resolvent, rtol=0, atol=1e-10)
        assert np.allclose(eig.weighted((b - vals) ** -2.0), resolvent @ resolvent, atol=1e-10)

    def test_lower_potential_is_the_negated_potential_bit_for_bit(self, rng):
        eig = eigendecompose(random_symmetric(7, rng))
        ell = eig.eigenvalues[0] - 0.3
        [phi] = eig.potentials(ell)
        assert -phi == float(np.sum(1.0 / (eig.eigenvalues - ell)))

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 31, 128, 129, 200])
    def test_potentials_are_one_barrier_sums_bit_for_bit(self, rng, d):
        # d > 128 crosses numpy's pairwise-summation block
        eig = eigendecompose(random_symmetric(d, rng))
        vals = eig.eigenvalues
        bs = (vals[-1] + 0.5, vals[-1] + 1.5, vals[0] - 0.5, vals[0] - 1.5)
        assert eig.potentials(*bs) == [float(np.sum(1.0 / (b - vals))) for b in bs]

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 32])
    def test_equals_numpy_eigh_bit_for_bit(self, rng, d):
        for scale in (1e-3, 1.0, 1e3):
            A = random_symmetric(d, rng, scale)
            eig = eigendecompose(A)
            vals, vecs = np.linalg.eigh(A)
            assert eig.eigenvalues.tobytes() == vals.tobytes()
            assert eig.eigenvectors.tobytes() == vecs.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 32])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_non_finite_matrix_is_linalg_error(self, rng, d, bad, where):
        A = random_symmetric(d, rng)
        i, j = (d - 1, d - 1) if where == "diagonal" or d == 1 else (d - 1, 0)
        A[i, j] = A[j, i] = bad
        with warnings.catch_warnings():
            # dsyevd's non-convergence also sets numpy's "invalid value" flag
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                eigendecompose(A)

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
            ([3, 1, 3], [1.0, 1.0, 1.0], "distinct"),
        ],
    )
    def test_invalid_selection_is_precondition_violation(self, indices, weights, message):
        with pytest.raises(PreconditionViolation, match=message):
            WeightedSelection(indices, weights)

    def test_nan_weight_is_precondition_violation(self):
        # nan <= 0 is False: a NaN weight would reconstruct an all-NaN matrix
        with pytest.raises(PreconditionViolation, match="strictly positive"):
            WeightedSelection([0, 1], [np.nan, 1.0])

    @pytest.mark.parametrize("indices", [[0, 3], [-1, 1]])
    def test_out_of_range_is_precondition_violation(self, indices):
        sel = WeightedSelection(indices, [1.0, 1.0])
        with pytest.raises(PreconditionViolation, match="out of range for m=3"):
            sel.reconstruct(VectorFamily(np.eye(3)))
