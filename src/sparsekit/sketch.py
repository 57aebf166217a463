"""Johnson-Lindenstrauss transforms for tensor products of vectors.

Two seeded linear maps R^{d^2} -> R^b, each applied by `apply_flat` to a
flat vector x = vec(X) or to a stack of them; the tensor u (x) v is
np.outer(u, v).ravel():

* TensorSrhtSketch: subsample b coordinates of (H D1 (x) H D2), applied as
  (H D1) X (H D2)^T through fast Walsh-Hadamard transforms in
  O(d^2 log d + b).
* TensorSparseSketch: s stacked count-sketch blocks of size b/s; each entry
  of X is added to one bucket per block, in O(s d^2).

Plus the adaptive-robust ensemble the Min-IP index uses: many independent
small TensorSparseSketches, of which queries sample a few and keep the best.
One generator draws all members' hash polynomials at once, and each hash
keeps its law (see hashing).
Sizes and hash independence read the package's failure probability afn.DELTA,
and the ensemble size the package's size multiplier afn.SCALE.
Sketches are immutable after construction and application is pure, so
concurrent use is safe; ensemble sampling takes an explicit RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .afn import DELTA, SCALE
from .errors import ConfigError, DimensionMismatch, PreconditionViolation
from .hashing import MERSENNE_P, poly_tables

__all__ = [
    "TensorSrhtSketch",
    "TensorSparseSketch",
    "SketchEnsemble",
    "ensemble_size_default",
]


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis."""
    x = np.array(x, dtype=float)
    n = x.shape[-1]
    if n & (n - 1):
        raise PreconditionViolation("length must be a power of two")
    h = 1
    while h < n:
        x = x.reshape(x.shape[:-1] + (n // (2 * h), 2, h))
        a = x[..., 0, :].copy()
        b = x[..., 1, :]
        x[..., 0, :] = a + b
        x[..., 1, :] = a - b
        x = x.reshape(x.shape[:-3] + (n,))
        h *= 2
    return x


def ensemble_size_default(d: int, m: int) -> int:
    """Default ensemble size: ceil((d + log(1/DELTA)) * log(m d)), times afn.SCALE."""
    return max(1, math.ceil(SCALE * (d + math.log(1.0 / DELTA)) * math.log(m * d)))


def _sparse_plans(side: int, b: int, s: int, seed, count: int):
    """(h1, h2, sg1, sg2, slots, weights) of `count` TensorSparseSketches, stacked.

    One default_rng(seed) draws all 4 count hash polynomials in two calls,
    every coefficient uniform in GF(2^61 - 1) and the leading ones nonzero,
    as PolyHash draws one.  slots and weights, (count, s, side^2), hold the
    output slot and the weight sigma1 sigma2/sqrt(s) of entry (i, j) in
    block k: the scatter plan that apply_flat follows.
    """
    if side < 1:
        raise ConfigError("side must be positive")
    if s < 1 or b < s or b % s != 0:
        raise ConfigError(f"b={b} must be a positive multiple of s={s}")
    block, degree = b // s, max(2, math.ceil(math.log(1.0 / DELTA)))
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, MERSENNE_P, size=(count, 4, degree), dtype=np.uint64)
    coeffs[..., -1] = rng.integers(1, MERSENNE_P, size=(count, 4), dtype=np.uint64)
    # keys i*s + k on the side x s grid; hashes onto [b/s], signs onto [2]
    tables = poly_tables(coeffs, [block, block, 2, 2], side * s).reshape(count, 4, side, s)
    h1, h2 = tables[:, 0], tables[:, 1]
    sg1, sg2 = 2.0 * tables[:, 2] - 1.0, 2.0 * tables[:, 3] - 1.0
    slots = (h1.mT[..., :, None] + h2.mT[..., None, :]) % block
    slots += np.arange(0, b, block)[:, None, None]
    weights = sg1.mT[..., :, None] * sg2.mT[..., None, :] * (1.0 / math.sqrt(s))
    return h1, h2, sg1, sg2, slots.reshape(count, s, -1), weights.reshape(count, s, -1)


class _TensorSketchBase:
    side: int
    b: int

    def _pad_flat(self, x) -> np.ndarray:
        """Embed flat inputs into the side x side tensor grid.

        `x` is one vector (L,) or a stack of rows (n, L); the result has
        shape (side, side) or (n, side, side).  A length-side^2 row is read
        as a row-major side x side matrix; any shorter row is zero-extended
        first, so plain (non-tensor) points share one fixed norm-preserving
        embedding.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] > self.side**2:
            raise DimensionMismatch(
                f"flat input of shape {x.shape} exceeds sketch capacity {self.side ** 2}"
            )
        xp = np.zeros(x.shape[:-1] + (self.side**2,))
        xp[..., : x.shape[-1]] = x
        return xp.reshape(x.shape[:-1] + (self.side, self.side))

    def apply_flat(self, x) -> np.ndarray:
        """Sketch one flat vector (L,) to (b,), or each row of (n, L) to (n, b)."""
        raise NotImplementedError


class TensorSrhtSketch(_TensorSketchBase):
    """Subsampled randomized Hadamard transform for degree-two tensors.

    The input side is zero-padded to the next power of two; padding is
    invisible to callers (norms are unchanged).  H is the +-1 Hadamard
    matrix, D1 and D2 are Rademacher diagonals, and b coordinates of the
    d^2-dimensional product are sampled with replacement and scaled by
    1/sqrt(b).
    """

    def __init__(self, side: int, b: int, seed: int):
        if side < 1 or b < 1:
            raise ConfigError("side and b must be positive")
        self.side = 1 << (side - 1).bit_length()
        self.b = b
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.d1 = rng.integers(0, 2, size=self.side) * 2 - 1
        self.d2 = rng.integers(0, 2, size=self.side) * 2 - 1
        self.rows = rng.integers(0, self.side**2, size=b)
        self._row_i, self._row_j = np.divmod(self.rows, self.side)

    def apply_flat(self, x) -> np.ndarray:
        X = self._pad_flat(x)
        # (H D1) X (H D2)^T through column then row Hadamard passes
        Z = fwht((self.d1[:, None] * X).swapaxes(-1, -2)).swapaxes(-1, -2)
        Z = fwht(self.d2 * Z)
        return Z[..., self._row_i, self._row_j] / math.sqrt(self.b)

    def materialize(self) -> np.ndarray:
        """Explicit b x side^2 matrix; for small-d verification only."""
        from scipy.linalg import hadamard

        H = hadamard(self.side).astype(float)
        HD1 = H * self.d1
        HD2 = H * self.d2
        S = np.empty((self.b, self.side**2))
        for k in range(self.b):
            S[k] = np.kron(HD1[self._row_i[k]], HD2[self._row_j[k]])
        return S / math.sqrt(self.b)


class TensorSparseSketch(_TensorSketchBase):
    """Sparse degree-two tensor embedding: s count-sketch blocks of size b/s.

    Entry (r, (i, j)) is sigma1(i,k) sigma2(j,k)/sqrt(s) when
    ((h1(i,k) + h2(j,k)) mod b/s) + k*(b/s) = r for the block k, giving every
    implicit column exactly s nonzeros, one per block.  Hash and sign
    functions are Theta(log 1/DELTA)-wise independent polynomials, drawn as
    for a one-member ensemble.
    """

    def __init__(self, side: int, b: int, s: int, seed: int):
        self.seed = int(seed)
        self._adopt(side, b, s, *(part[0] for part in _sparse_plans(side, b, s, self.seed, 1)))

    def _adopt(self, side, b, s, *plan) -> None:
        self.side, self.b, self.s, self.block = int(side), b, s, b // s
        self.h1, self.h2, self.sg1, self.sg2, self._slots, self._weights = plan

    def apply_flat(self, x) -> np.ndarray:
        X = self._pad_flat(x)
        rows = X.reshape(-1, 1, self.side**2)
        index = self._slots + (np.arange(len(rows)) * self.b)[:, None, None]
        # weight * x has the bits of sign * x * (1/sqrt(s)): a +-1 factor is exact
        vals = self._weights * rows
        # bincount adds each slot's entries in (k, i, j) order, as one row's
        # scatter-add would, so a row's sketch does not depend on the stack
        out = np.bincount(index.ravel(), vals.ravel(), minlength=len(rows) * self.b)
        return out.reshape(X.shape[:-2] + (self.b,))

    def materialize(self) -> np.ndarray:
        """Explicit b x side^2 matrix; for small-d verification only."""
        R = np.zeros((self.b, self.side**2))
        for i in range(self.side):
            for j in range(self.side):
                col = i * self.side + j
                for k in range(self.s):
                    r = (self.h1[i, k] + self.h2[j, k]) % self.block + k * self.block
                    R[r, col] += self.sg1[i, k] * self.sg2[j, k] / math.sqrt(self.s)
        return R


@dataclass
class SketchEnsemble:
    """k independent TensorSparseSketches of b rows in s blocks, drawn from one master seed.

    During an adaptive query sequence a caller samples a few members per
    query and keeps the best answer; a 0.95 fraction of members preserves
    any fixed distance, so sampled subsets are good with high probability.
    """

    side: int
    b: int
    k: int
    master_seed: int
    s: int

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("ensemble size k must be >= 1")
        plans = _sparse_plans(self.side, self.b, self.s, self.master_seed, self.k)
        self.sketches = [TensorSparseSketch.__new__(TensorSparseSketch) for _ in range(self.k)]
        for member, *parts in zip(self.sketches, *plans):
            member._adopt(self.side, self.b, self.s, *parts)

    def __len__(self) -> int:
        return self.k

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample of member indices without replacement."""
        if not 1 <= count <= self.k:
            raise ConfigError(f"sample count {count} not in [1, {self.k}]")
        return rng.choice(self.k, size=count, replace=False)

    def descriptor(self) -> dict:
        return {
            "side": self.side,
            "b": self.b,
            "s": self.s,
            "k": self.k,
            "master_seed": self.master_seed,
        }
