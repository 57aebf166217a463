"""Vector families, weighted selections, and the dense kernels the solvers share.

The one spectral primitive is ``eigendecompose`` (``numpy.linalg.eigh``);
each solver derives its barrier potentials and inverse powers from it
inline.  There is deliberately no fast-matrix-multiplication path.  All
functions are pure: they never mutate their inputs and hold no state, so
concurrent invocation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PreconditionViolation, SingularGram

__all__ = [
    "VectorFamily",
    "WeightedSelection",
    "EigenDecomposition",
    "eigendecompose",
    "whiten",
    "check_isotropy",
]


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


@dataclass
class VectorFamily:
    """m vectors in R^d, stored densely with a parallel per-row nonzero count.

    The nonzero counts drive the nnz-based cost estimates used when choosing
    between the two positive-search trees, so they are recorded once at
    construction (from the sparse structure of the source when available)
    rather than re-derived from the dense array.
    """

    vectors: np.ndarray
    nnz_per_row: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise DimensionMismatch("vectors must be a 2-D (m, d) array")
        if not np.all(np.isfinite(self.vectors)):
            raise PreconditionViolation("vector family contains non-finite entries")
        if self.nnz_per_row is None:
            self.nnz_per_row = np.count_nonzero(self.vectors, axis=1)
        else:
            self.nnz_per_row = np.asarray(self.nnz_per_row, dtype=int)
            if self.nnz_per_row.shape != (self.vectors.shape[0],):
                raise DimensionMismatch("nnz_per_row must have one entry per vector")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.vectors[i]

    def nnz_outer_total(self) -> int:
        """Total stored nonzeros of all outer products: sum of nnz(v_i)^2."""
        return int(np.sum(self.nnz_per_row.astype(np.int64) ** 2))

    def gram(self) -> np.ndarray:
        """Sum of outer products, V^T V for row-major V."""
        return self.vectors.T @ self.vectors


@dataclass
class WeightedSelection:
    """Selected indices with positive weights; the output of the solvers."""

    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.indices.shape != self.weights.shape or self.indices.ndim != 1:
            raise DimensionMismatch("indices and weights must be parallel 1-D arrays")
        if np.any(self.weights <= 0):
            raise PreconditionViolation("selection weights must be strictly positive")
        if len(np.unique(self.indices)) != len(self.indices):
            raise PreconditionViolation("selection indices must be distinct")

    @property
    def support_size(self) -> int:
        return len(self.indices)

    def validate_range(self, m: int) -> None:
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= m):
            raise PreconditionViolation(f"selection indices out of range for m={m}")

    def reconstruct(self, family: VectorFamily) -> np.ndarray:
        """Weighted sum of outer products over the selection."""
        self.validate_range(family.count)
        rows = family.vectors[self.indices]
        return (rows * self.weights[:, None]).T @ rows

    def as_dict(self) -> dict:
        return {
            "indices": self.indices.tolist(),
            "weights": self.weights.tolist(),
            "support_size": self.support_size,
        }


@dataclass
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        Q = self.eigenvectors
        return (Q * self.eigenvalues) @ Q.T


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    scale = np.maximum(1.0, np.abs(A))
    if np.any(np.abs(A - A.T) > 1e-12 * scale):
        raise DimensionMismatch("matrix is not symmetric within 1e-12 relative tolerance")
    return A


def eigendecompose(A) -> EigenDecomposition:
    """One symmetric eigendecomposition; the single primitive everything shares."""
    A = _check_symmetric(_as_square(A))
    vals, vecs = np.linalg.eigh(A)
    return EigenDecomposition(vals, vecs)


def whiten(family: VectorFamily, pi=None) -> VectorFamily:
    """Right-multiply the family by (X^T diag(pi) X)^{-1/2}.

    The returned family X' satisfies sum_i pi_i x'_i x'_i^T = I.  nnz counts
    are recomputed since whitening destroys sparsity.
    """
    X = family.vectors
    if pi is None:
        pi = np.ones(family.count)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (family.count,):
        raise DimensionMismatch("pi must have one weight per vector")
    G = X.T @ (pi[:, None] * X)
    eig = eigendecompose(G)
    vals = eig.eigenvalues
    if vals[0] <= 1e-10 * max(vals[-1], 1e-300):
        raise SingularGram(
            f"weighted Gram matrix is numerically singular: lambda_min={vals[0]}"
        )
    Q = eig.eigenvectors
    inv_sqrt = (Q * vals**-0.5) @ Q.T
    return VectorFamily(X @ inv_sqrt)


def check_isotropy(family: VectorFamily, tol: float) -> bool:
    """True iff the family's Gram matrix is the identity within Frobenius tol."""
    G = family.gram()
    return bool(np.linalg.norm(G - np.eye(family.dim)) <= tol)
