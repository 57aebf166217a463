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
Sizes and hash independence read the package's failure probability afn.DELTA.
Sketches are immutable after construction and application is pure, so
concurrent use is safe; ensemble sampling takes an explicit RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .afn import DELTA
from .errors import ConfigError, DimensionMismatch
from .hashing import PolyHash, SignHash

__all__ = [
    "TensorSrhtSketch",
    "TensorSparseSketch",
    "SketchEnsemble",
    "sketch_rows",
    "ensemble_size_default",
]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis."""
    x = np.array(x, dtype=float)
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
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


def ensemble_size_default(d: int, m: int, scale: float) -> int:
    """Default ensemble size: ceil((d + log(1/DELTA)) * log(m d)), scaled."""
    return max(1, math.ceil(scale * (d + math.log(1.0 / DELTA)) * math.log(m * d)))


class _TensorSketchBase:
    side: int
    b: int
    seed: int

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
        self.side = _next_pow2(side)
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
    functions are Theta(log 1/DELTA)-wise independent polynomials.
    """

    def __init__(self, side: int, b: int, s: int, seed: int):
        if side < 1:
            raise ConfigError("side must be positive")
        if s < 1 or b < s or b % s != 0:
            raise ConfigError(f"b={b} must be a positive multiple of s={s}")
        self.side = int(side)
        self.b = b
        self.s = s
        self.block = b // s
        self.seed = int(seed)
        degree = max(2, math.ceil(math.log(1.0 / DELTA)))
        ss = np.random.SeedSequence(self.seed).spawn(4)
        self.h1 = PolyHash(degree, self.block, ss[0]).grid(self.side, s)
        self.h2 = PolyHash(degree, self.block, ss[1]).grid(self.side, s)
        self.sg1 = SignHash(degree, ss[2]).grid(self.side, s).astype(float)
        self.sg2 = SignHash(degree, ss[3]).grid(self.side, s).astype(float)

    def apply_flat(self, x) -> np.ndarray:
        X = self._pad_flat(x)
        stack = X.reshape((-1,) + X.shape[-2:])  # (n, side, side)
        n = stack.shape[0]
        scale = 1.0 / math.sqrt(self.s)
        # output slot of entry (i, j) in block k; stack row r owns slots [r b, (r+1) b)
        buckets = (self.h1.T[:, :, None] + self.h2.T[:, None, :]) % self.block
        buckets = buckets + (np.arange(self.s) * self.block)[:, None, None]
        signs = self.sg1.T[:, :, None] * self.sg2.T[:, None, :]
        index = buckets[None] + (np.arange(n) * self.b)[:, None, None, None]
        vals = signs[None] * stack[:, None] * scale
        # bincount adds each bucket's entries in (i, j) order, as one row's
        # scatter-add would, so a row's sketch does not depend on the stack
        out = np.bincount(index.ravel(), vals.ravel(), minlength=n * self.b)
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


def sketch_rows(b: int, s: int) -> int:
    """Rows of a sparse sketch asked for b: b rounded up to a multiple of s."""
    return -(-b // s) * s


@dataclass
class SketchEnsemble:
    """k independent TensorSparseSketches with seeds derived from one master seed.

    b is rounded up to a multiple of s.

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
        self.b = sketch_rows(self.b, self.s)
        seeds = np.random.SeedSequence(self.master_seed).generate_state(self.k)
        self.sketches = [
            TensorSparseSketch(self.side, self.b, self.s, int(seed)) for seed in seeds
        ]

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i: int):
        return self.sketches[i]

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
