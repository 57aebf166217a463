"""k-wise independent hashing via random polynomials over a Mersenne prime.

Coefficients uniform in GF(2^61 - 1), the leading one nonzero, make a
degree-(k-1) polynomial a k-wise independent hash (Carter-Wegman), whatever
generator draws them.  poly_tables evaluates a stack of polynomials in one
uint64 Horner pass; PolyHash is one, evaluated in Python integers: the
tests' oracle for poly_tables, and the site perfbench's hashing.grid times.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

MERSENNE_P = (1 << 61) - 1


def poly_tables(coeffs, ranges, keys: int) -> np.ndarray:
    """(..., keys) int64: each polynomial at x = 0..keys-1 <= 2^32, mod P, then mod its range.

    coeffs[..., i] in [0, P) is the coefficient of x^i; ranges broadcast against
    coeffs.shape[:-1].  Exact, as 2^61 = 1 mod P: acc = hi 2^32 + lo gives acc x
    = (hi x >> 29) + (hi x mod 2^29) 2^32 + (lo x >> 61) + (lo x mod 2^61), none
    overflowing, and acc stays below 2^61 + 8.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint64)[..., None]  # (..., degree, 1)
    x = np.arange(keys, dtype=np.uint64)
    acc = coeffs[..., -1, :] + np.zeros_like(x)
    for i in range(coeffs.shape[-2] - 2, -1, -1):
        hi, lo = (acc >> 32) * x, (acc & 0xFFFFFFFF) * x
        acc = (hi >> 29) + ((hi & 0x1FFFFFFF) << 32) + coeffs[..., i, :]
        acc += (lo >> 61) + (lo & MERSENNE_P)
        acc = (acc & MERSENNE_P) + (acc >> 61)
    acc = np.where(acc >= MERSENNE_P, acc - MERSENNE_P, acc)
    return (acc % np.asarray(ranges, dtype=np.uint64)[..., None]).astype(np.int64)


class PolyHash:
    """Degree-(k-1) polynomial hash onto [range_size]."""

    def __init__(self, k: int, range_size: int, seed):
        if k < 2:
            raise ConfigError(f"k={k} violates k >= 2 (pairwise independence)")
        if not 1 <= range_size < MERSENNE_P:
            raise ConfigError(f"range_size={range_size} violates 1 <= range_size < 2^61 - 1")
        self.k = k
        self.range_size = range_size
        rng = np.random.default_rng(seed)
        # leading coefficient nonzero keeps the polynomial at full degree
        coeffs = rng.integers(0, MERSENNE_P, size=k)
        coeffs[-1] = rng.integers(1, MERSENNE_P)
        self.coeffs = [int(c) for c in coeffs]

    def __call__(self, key: int) -> int:
        acc = 0
        x = int(key) % MERSENNE_P
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % MERSENNE_P
        return acc % self.range_size

    def grid(self, rows: int, cols: int) -> np.ndarray:
        """Evaluate on keys row*cols + col for the full (rows, cols) grid (see poly_tables)."""
        return poly_tables(self.coeffs, self.range_size, rows * cols).reshape(rows, cols)
