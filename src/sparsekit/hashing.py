"""k-wise independent hashing via random polynomials over a Mersenne prime.

Coefficients are drawn uniformly from GF(2^61 - 1); a degree-(k-1)
polynomial evaluated at distinct keys gives a k-wise independent family
(Carter-Wegman).  Python integers handle the 122-bit intermediate products,
and the evaluation grids we need (at most a few thousand keys) are small
enough that Horner's rule over a Python list of keys is fine.
"""

from __future__ import annotations

import numpy as np

MERSENNE_P = (1 << 61) - 1


class PolyHash:
    """Degree-(k-1) polynomial hash onto [range_size]."""

    def __init__(self, k: int, range_size: int, seed):
        if k < 2:
            raise ValueError("need k >= 2 for pairwise independence")
        if not 1 <= range_size < MERSENNE_P:
            raise ValueError("range_size out of field range")
        self.k = k
        self.range_size = range_size
        rng = np.random.default_rng(seed)
        # leading coefficient nonzero keeps the polynomial at full degree
        coeffs = rng.integers(0, MERSENNE_P, size=k)
        coeffs[-1] = rng.integers(1, MERSENNE_P)
        self._coeffs = [int(c) for c in coeffs]

    def __call__(self, key: int) -> int:
        acc = 0
        x = int(key) % MERSENNE_P
        for c in reversed(self._coeffs):
            acc = (acc * x + c) % MERSENNE_P
        return acc % self.range_size

    def grid(self, rows: int, cols: int) -> np.ndarray:
        """Evaluate on keys row*cols + col for the full (rows, cols) grid.

        Horner's rule steps every key at once, one coefficient at a time.
        """
        keys = range(rows * cols)  # all below MERSENNE_P
        acc = [0] * len(keys)
        for c in reversed(self._coeffs):
            acc = [(a * x + c) % MERSENNE_P for a, x in zip(acc, keys)]
        return np.array(acc, dtype=np.int64).reshape(rows, cols) % self.range_size


class SignHash:
    """k-wise independent {-1, +1} values derived from a PolyHash low bit."""

    def __init__(self, k: int, seed):
        self._h = PolyHash(k, 2, seed)

    def grid(self, rows: int, cols: int) -> np.ndarray:
        return 2 * self._h.grid(rows, cols) - 1
