"""Vector families, weighted selections, and the dense kernels the solvers share.

The one spectral step is ``eigendecompose`` (``numpy.linalg.eigh``), whose
``EigenDecomposition`` gives every spectral quantity the three solvers
use: matrix functions Q diag(w) Q^T (``weighted``: barrier matrices,
inverse powers, whitening) and barrier potentials sum_i 1/(b - lambda_i)
(``potentials``).  ``eigendecompose`` checks nothing: eigh reads one
triangle, and the solvers' accumulators are symmetric by construction, so
each solver runs ``check_symmetric`` on its final accumulator once per
solve.  There is deliberately no fast-matrix-multiplication path.  All
functions are pure: they never mutate their inputs and hold no state, so
concurrent invocation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PreconditionViolation, SingularGram

__all__ = [
    "VectorFamily",
    "WeightedSelection",
    "EigenDecomposition",
    "eigendecompose",
    "check_symmetric",
    "whiten",
    "check_isotropy",
]

#: Frobenius distance from I within which a family counts as isotropic
ISOTROPY_TOL = 1e-6


@dataclass
class VectorFamily:
    """m >= 1 vectors in R^d, d >= 1, stored densely.

    The per-row nonzero counts, which drive the nnz-based cost estimate used
    when choosing between the two positive-search trees, are read from the
    vectors themselves: a stored zero counts as a zero.
    """

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise DimensionMismatch("vectors must be a 2-D (m, d) array")
        if 0 in self.vectors.shape:
            raise PreconditionViolation(f"vector family of shape {self.vectors.shape} is empty")
        if not np.all(np.isfinite(self.vectors)):
            raise PreconditionViolation("vector family contains non-finite entries")

    @property
    def nnz_per_row(self) -> np.ndarray:
        """Nonzero entries of each vector."""
        return np.count_nonzero(self.vectors, axis=1)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

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

    def weighted(self, w) -> np.ndarray:
        """Q diag(w) Q^T: the matrix with these eigenvectors and eigenvalues w."""
        Q = self.eigenvectors
        return (Q * w) @ Q.T

    def potentials(self, *bs: float) -> list:
        """sum_i 1/(b - lambda_i) = tr (bI - A)^{-1} for each barrier b, in one reduction.

        The lower potential at l is the negated value at l.  Each row sums
        like np.sum over the eigenvalues, so each value is bit-identical to
        a one-barrier sum.
        """
        b = np.asarray(bs, dtype=float)
        return np.add.reduce(1.0 / (b[:, None] - self.eigenvalues), axis=1).tolist()


def eigendecompose(A: np.ndarray) -> EigenDecomposition:
    """eigh of A, unchecked: it reads only A's lower triangle (see check_symmetric)."""
    vals, vecs = np.linalg.eigh(A)
    return EigenDecomposition(vals, vecs)


def check_symmetric(A: np.ndarray) -> None:
    """Raise unless A is finite and symmetric within 1e-12 relative tolerance."""
    if not np.all(np.isfinite(A)):
        raise PreconditionViolation("matrix contains non-finite entries")
    scale = np.maximum(1.0, np.abs(A))
    if np.any(np.abs(A - A.T) > 1e-12 * scale):
        raise DimensionMismatch("matrix is not symmetric within 1e-12 relative tolerance")


def whiten(family: VectorFamily, pi=None) -> VectorFamily:
    """Right-multiply the family by (X^T diag(pi) X)^{-1/2}.

    The returned family X' satisfies sum_i pi_i x'_i x'_i^T = I.  Whitening
    mixes coordinates, so X' is dense in general, and its nnz counts say so.
    """
    X = family.vectors
    if pi is None:
        pi = np.ones(family.count)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (family.count,):
        raise DimensionMismatch("pi must have one weight per vector")
    if not np.all(np.isfinite(pi) & (pi >= 0.0)):
        raise PreconditionViolation("pi must be finite and nonnegative")
    G = X.T @ (pi[:, None] * X)
    eig = eigendecompose(G)
    vals = eig.eigenvalues
    if vals[0] <= 1e-10 * max(vals[-1], 1e-300):
        raise SingularGram(
            f"weighted Gram matrix is numerically singular: lambda_min={vals[0]}"
        )
    return VectorFamily(X @ eig.weighted(vals**-0.5))


def check_isotropy(family: VectorFamily, pi=None) -> bool:
    """True iff sum_i pi_i v_i v_i^T (pi_i = 1 when pi is None) is the
    identity within Frobenius distance ISOTROPY_TOL."""
    X = family.vectors
    G = family.gram() if pi is None else X.T @ (np.asarray(pi, dtype=float)[:, None] * X)
    return bool(np.linalg.norm(G - np.eye(family.dim)) <= ISOTROPY_TOL)
