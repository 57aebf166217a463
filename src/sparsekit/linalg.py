"""Vector families, weighted selections, and the dense kernels the solvers share.

The one spectral step is ``eigendecompose``, whose ``EigenDecomposition``
gives every spectral quantity the three solvers use: matrix functions
Q diag(w) Q^T (``weighted``: barrier matrices, inverse powers, whitening)
and barrier potentials sum_i 1/(b - lambda_i) (``potentials``).
``eigendecompose`` calls numpy's ``eigh_lo`` gufunc (LAPACK dsyevd on the
lower triangle) directly.  That is the routine ``numpy.linalg.eigh``
calls, so the bits are the same; skipped are the wrapper's type dispatch,
errstate context and result tuple, which at small d cost more than dsyevd
itself.  It checks only that the result is finite: eigh reads one
triangle, and the solvers' accumulators are symmetric by construction, so
each solver runs ``check_symmetric`` on its final accumulator once per
solve.  The one row scan is ``quadratic_forms``, v^T M v for every row v
by a GEMM, an in-place product and a GEMV, with einsum's bits at d = 1, 2
and 4: the sparsifier's witness scan, the Kadison-Singer scan and swap
rounding's one pass per swap call it.  Every solver asks its search
structure through ``propose_or_scan``.  There is deliberately no
fast-matrix-multiplication path.  All functions are pure: they never mutate
their inputs and hold no state, so concurrent invocation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, NoPositiveEntry, PreconditionViolation, SingularGram

__all__ = [
    "VectorFamily",
    "WeightedSelection",
    "EigenDecomposition",
    "eigendecompose",
    "quadratic_forms",
    "propose_or_scan",
    "check_symmetric",
    "whiten",
    "check_isotropy",
    "is_identity",
]

#: Frobenius distance from I within which a family counts as isotropic
ISOTROPY_TOL = 1e-6


@dataclass
class VectorFamily:
    """m >= 1 vectors in R^d, d >= 1, stored densely.

    The per-row nonzero counts are read from the vectors themselves: a
    stored zero counts as a zero.
    """

    vectors: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.vectors):  # a float cast would drop the imaginary parts
            raise PreconditionViolation("vector family has complex entries")
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
        if not np.all(self.weights > 0):  # False on NaN, so NaN is refused too
            raise PreconditionViolation("selection weights must be strictly positive")
        if (np.diff(np.sort(self.indices)) == 0).any():
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
    """eigh of A, bit for bit: it reads only A's lower triangle (see check_symmetric).

    Raises np.linalg.LinAlgError when an eigenvalue or eigenvector entry is
    not finite: dsyevd did not converge, or that triangle holds a NaN or an
    inf.  Non-convergence also emits numpy's RuntimeWarning "invalid value".
    """
    vals, vecs = _umath_linalg.eigh_lo(A, signature="d->dd")
    # each eigenvalue meets each eigenvector entry, so any NaN or inf shows
    if not math.isfinite(vecs.dot(vals).dot(vecs[0])):
        raise np.linalg.LinAlgError("eigendecomposition is not finite")
    return EigenDecomposition(vals, vecs)


def quadratic_forms(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v_i^T M v_i for every row v_i of V, O(m d^2): P = V M by GEMM, P *= V, P 1 by GEMV.
    With OpenBLAS, einsum("ij,ij->i")'s bits at d = 1, 2, 4, else within 2.4 ulp of sum |P_i|."""
    P = V @ M
    return np.multiply(P, V, out=P) @ np.ones(V.shape[1])


def propose_or_scan(propose, verify, scan, *query):
    """One greedy step's row: a proposal that verifies, else the solver's exact scan.

    The only code that asks a proposer: ``propose(*query)`` returns a row;
    None or a raised NoPositiveEntry mean no answer, and an exact solve
    passes propose=None.  ``verify(row, *query)`` returns the solver's own
    (value, inequality holds), so a proposal never weakens a guarantee; it
    also refuses a row the solver no longer holds (a chosen KS row, a swap
    non-member), so a stale proposal is a counted fallback too.
    Else ``scan(*query)`` returns the exact (row, value).  Returns (row,
    value, fell_back); fell_back, a scan in a proposal's place, is counted.
    """
    if propose is not None:
        try:
            row = propose(*query)
        except NoPositiveEntry:
            row = None
        if row is not None:
            value, holds = verify(row, *query)
            if holds:
                return row, value, False
    return (*scan(*query), propose is not None)


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
    with np.errstate(over="ignore"):  # refused just below, with its own error
        G = X.T @ (pi[:, None] * X)
    if not np.all(np.isfinite(G)):
        raise PreconditionViolation("weighted Gram matrix X^T diag(pi) X is not finite")
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
    with np.errstate(over="ignore"):  # an overflowed entry is inf, which is not I
        G = family.gram() if pi is None else X.T @ (np.asarray(pi, dtype=float)[:, None] * X)
    return is_identity(G)


def is_identity(G: np.ndarray) -> bool:
    """True iff the square matrix G is the identity within Frobenius distance ISOTROPY_TOL."""
    with np.errstate(over="ignore"):  # a norm that overflows is inf, which is not I
        return bool(np.linalg.norm(G - np.eye(len(G))) <= ISOTROPY_TOL)
