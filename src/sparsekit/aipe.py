"""Adaptive inner-product estimation through robust distance estimation.

The estimator stores the dataset under the unit-sphere transform and keeps a
pool of seeded Gaussian JL sketches, sized for the failure probability
afn.DELTA; the pool size and the per-query sample count are their formulas
times afn.SCALE = 0.25, as for every search structure, while the sketch
dimension 8/eps^2 keeps its full size.  Each query samples a few pool members
(caller-supplied RNG), estimates every point's distance to the query under
each sampled sketch, and reports per-point medians; medians over
independently sampled sketches are what make the estimates stable under
adaptively chosen queries.  Inner-product estimates follow from
w_i = D * (1 - d_i^2 / 2).

Pool member j stands for an s_dim x (D+2) Gaussian sketch S_j, drawn from
the Philox stream of SeedSequence(seed, spawn_key=(j,)), the j-th child
SeedSequence(seed).spawn would give, by its path when j is first sampled.
Factors are keyed per query: a query derives the keys of all its cold
picks in one afn.philox_keys pass, and the estimator's one Generator is
restarted at each key to draw that factor.  Only a factor R_j of
min(s_dim, D+2) x (D+2) is drawn and cached, whose R_j^T R_j has the law of
S_j^T S_j / s_dim: ||R_j v|| then has the law of ||S_j v|| / sqrt(s_dim)
for every v, jointly over all v, and a sketch costs O(m D^2) per query
instead of O(m s_dim D).  A short sketch (s_dim <= D+2) is its own factor,
S_j / sqrt(s_dim).  A tall one is drawn directly as R_j = L^T / sqrt(s_dim),
L the Bartlett factor of a Wishart(s_dim, I) matrix: (D+2)(D+3)/2 draws
instead of s_dim (D+2) normals, a Gram product and a Cholesky call.

A query costs one GEMM and one median, whatever the sample count: the
sampled members' cached factors are stacked, applied to all m points at
once (samples * m * (D+2)^2 multiply-adds at most), and each point's median
distance is read off its row of squared distances.  The GEMM runs over
blocks of BLOCK_ROWS points, so a query's projections take at most samples *
BLOCK_ROWS * min(s_dim, D+2) floats.  Points live in a PointStore (one
contiguous array, row i holding id i); a query lifts the live points to the
unit sphere under the current radius, so an update only touches the store
and, for an insert, the radius.  Mutations need exclusive access.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .afn import DELTA, SCALE, philox_keys, rekey
from .errors import ConfigError, DimensionMismatch, NotFound, PreconditionViolation
from .minip import minip_transform_dataset, minip_transform_query
from .pointstore import PointStore

__all__ = ["AipeConfig", "InnerProductEstimator"]

BLOCK_ROWS = 4096  # stored points per GEMM block; no golden or benchmark size is split


class AipeConfig:
    """No fields: the pools read afn.SCALE.  Kept because perfbench passes one."""

    @classmethod
    def desk(cls) -> "AipeConfig":
        """Alias of AipeConfig(): perfbench/workloads.py still calls it."""
        return cls()


def _sketch_dim(eps: float) -> int:
    # accuracy-critical: not multiplied by SCALE
    return math.ceil(8.0 / eps**2)


def _pool_size(s_dim: int, m: int) -> int:
    raw = (s_dim + math.log(1.0 / DELTA)) * math.log(max(m, 2))
    return max(3, math.ceil(SCALE * raw))


def _sample_count(pool: int) -> int:
    raw = 3.0 * math.log(max(pool, 2))
    return min(pool, max(3, math.ceil(SCALE * raw)))


class InnerProductEstimator:
    """All-points inner-product estimates that stay valid under adaptivity."""

    def __init__(self, points, eps: float, seed):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 1:
            raise PreconditionViolation("need at least one point")
        _check_finite(pts, "points")
        self.eps = float(eps)
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError(f"eps={eps} violates 0 < eps < inf")
        self.dim = pts.shape[1]
        self.radius = float(np.linalg.norm(pts, axis=1).max())
        if self.radius <= 0.0:
            self.radius = 1.0
        self.s_dim = _sketch_dim(self.eps)
        self.pool = _pool_size(self.s_dim, pts.shape[0])
        self.samples = _sample_count(self.pool)
        seq = np.random.SeedSequence(seed)  # refuses a bad seed here
        self._entropy = seq.entropy
        self._gen = np.random.Generator(np.random.Philox(seq))  # rekeyed per factor
        self._factors: dict[int, np.ndarray] = {}
        self._store = PointStore(pts)

    @property
    def count(self) -> int:
        return len(self._store)

    def insert(self, z) -> int:
        """Add a point; the dataset radius only ever grows (monotone bound)."""
        z = np.asarray(z, dtype=float)
        _check_finite(z, "inserted point")
        pid = self._store.add(z)  # DimensionMismatch for a wrong shape, before radius grows
        norm = float(np.linalg.norm(z[None], axis=1)[0])  # as the build reads it
        self.radius = max(self.radius, norm)
        return pid

    def delete(self, pid: int) -> None:
        self._store.remove(pid)

    def _factors_of(self, picks: list) -> list:
        """The factors of pool members `picks`, the cold ones drawn now.

        R has R^T R distributed as S_j^T S_j / s_dim, S_j an s_dim x (D+2)
        Gaussian.  A short member (s_dim <= p = D+2) draws S_j itself and
        keeps R = S_j / sqrt(s_dim).  A tall one draws its factor directly:
        R = L^T / sqrt(s_dim), L the Bartlett factor of a Wishart(s_dim, I_p),
        with p(p-1)/2 standard normals below the diagonal (np.tril_indices
        order) and L_ii^2 ~ chi^2(s_dim - i) for i = 0..p-1.  That is the
        law of the transposed Cholesky factor of S_j^T S_j / s_dim, so
        ||R v|| has the law of ||S_j v|| / sqrt(s_dim) for every v, at
        p(p+1)/2 draws instead of s_dim * p.  The cold members' keys come
        from one philox_keys call.
        """
        cold = [j for j in picks if j not in self._factors]
        if cold:
            gen = self._gen
            p, s = self.dim + 2, self.s_dim
            for j, key in zip(cold, philox_keys(self._entropy, cold).tolist()):
                rekey(gen.bit_generator, key)
                if s > p:
                    L = np.zeros((p, p))
                    L[_below_diagonal(p)] = gen.standard_normal(p * (p - 1) // 2)
                    L.flat[:: p + 1] = np.sqrt(gen.chisquare(s - np.arange(p)))
                    self._factors[j] = L.T / math.sqrt(s)
                else:
                    self._factors[j] = gen.standard_normal((s, p)) / math.sqrt(s)
        return [self._factors[j] for j in picks]

    def distance_estimates(self, q, rng: np.random.Generator) -> np.ndarray:
        """Median per-point distance estimates in the transformed space.

        Entry i belongs to the i-th live id in ascending order, the id in
        row i of the store's `ids`.  The sampled members' factors are
        stacked and applied in one GEMM per block of BLOCK_ROWS points; each
        point's squared distances under the samples are one contiguous row.
        For an odd sample count the median is the middle one, whose square
        root is the middle distance since sqrt is monotone; an even count
        averages the middle two distances.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise DimensionMismatch(f"expected a query of dim {self.dim}, got shape {q.shape}")
        _check_finite(q, "query")
        aug = minip_transform_dataset(self._store.points, self.radius)[0]
        qa, _ = minip_transform_query(q, 1.0)
        picks = rng.choice(self.pool, size=self.samples, replace=False)
        R = np.concatenate(self._factors_of(picks.tolist()))
        shape = (-1, self.samples, len(R) // self.samples)
        sq = np.empty((len(aug), self.samples))  # (m, samples) squared distances
        for lo in range(0, len(aug), BLOCK_ROWS):
            proj = ((aug[lo : lo + BLOCK_ROWS] - qa) @ R.T).reshape(shape)
            np.einsum("ijk,ijk->ij", proj, proj, out=sq[lo : lo + BLOCK_ROWS])
        if self.samples % 2:  # the middle order statistic: np.median's bits, at less cost
            mid = self.samples // 2
            return np.sqrt(np.partition(sq, mid, axis=1)[:, mid])
        return np.median(np.sqrt(sq), axis=1)

    def query_min(self, q, rng: np.random.Generator) -> int:
        """Id of the point with the largest estimated distance (ties: lowest id).

        The largest estimated distance is the smallest estimated inner
        product, so this doubles as approximate furthest neighbor and
        approximate Min-IP.
        """
        if not len(self._store):
            raise NotFound("query on an estimator whose points were all deleted")
        d = self.distance_estimates(q, rng)
        return int(self._store.ids[np.argmax(d)])  # first maximum: the lowest id


@lru_cache(maxsize=None)
def _below_diagonal(p: int) -> np.ndarray:
    """Read-only mask of the entries below the diagonal of a p x p matrix:
    row-major, so it fills np.tril_indices(p, -1) order."""
    mask = np.tri(p, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise PreconditionViolation(f"{what} must be finite")
