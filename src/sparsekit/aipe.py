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

Pool member j is the s_dim x (D+2) Gaussian S_j drawn from
SeedSequence(seed, spawn_key=(j,)), the j-th child SeedSequence(seed).spawn
would give, derived by its path when j is first sampled.  Only a factor R_j
with R_j^T R_j = S_j^T S_j / s_dim, of min(s_dim, D+2) x (D+2), is cached:
||S_j v|| / sqrt(s_dim) = ||R_j v|| for every v, so a sketch costs O(m D^2)
per query instead of O(m s_dim D).  A tall sketch is reduced through its
(D+2) x (D+2) Gram matrix and a Cholesky factor; a short one is its own
factor.  Points live in a PointStore (one
contiguous array, row i holding id i).  Mutations need exclusive access.
"""

from __future__ import annotations

import math

import numpy as np

from .afn import DELTA, SCALE
from .errors import ConfigError, DimensionMismatch, NotFound, PreconditionViolation
from .minip import minip_transform_dataset, minip_transform_query
from .pointstore import PointStore

__all__ = ["AipeConfig", "InnerProductEstimator"]


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
        self._entropy = np.random.SeedSequence(seed).entropy  # refuses a bad seed here
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
        self.radius = max(self.radius, float(np.linalg.norm(z)))
        return pid

    def delete(self, pid: int) -> None:
        self._store.remove(pid)

    def _factor(self, j: int) -> np.ndarray:
        """R with R^T R = S_j^T S_j / s_dim, S_j the j-th pool member's Gaussian sketch.

        A tall S_j (s_dim > D+2) gives the (D+2) x (D+2) transposed Cholesky
        factor of its Gram matrix; a short one is already the smaller factor
        and is only scaled.  Either way ||R v|| = ||S_j v|| / sqrt(s_dim).
        """
        R = self._factors.get(j)
        if R is None:
            child = np.random.SeedSequence(self._entropy, spawn_key=(j,))
            gen = np.random.Generator(np.random.Philox(child))
            S = gen.standard_normal((self.s_dim, self.dim + 2))
            if self.s_dim > self.dim + 2:
                R = np.linalg.cholesky(S.T @ S / self.s_dim).T
            else:
                R = S / math.sqrt(self.s_dim)
            self._factors[j] = R
        return R

    def distance_estimates(self, q, rng: np.random.Generator) -> np.ndarray:
        """Median per-point distance estimates in the transformed space.

        Entry i belongs to the i-th live id in ascending order, the id in
        row i of the store's `ids`.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise DimensionMismatch(f"expected a query of dim {self.dim}, got shape {q.shape}")
        _check_finite(q, "query")
        # transformed afresh: an insert may have grown the radius
        aug, _ = minip_transform_dataset(self._store.points, self.radius)
        qa, _ = minip_transform_query(q, 1.0)
        diff = aug - qa
        picks = rng.choice(self.pool, size=self.samples, replace=False)
        ests = np.empty((len(picks), len(self._store)))
        for row, j in enumerate(picks):
            ests[row] = np.linalg.norm(diff @ self._factor(int(j)).T, axis=1)
        return np.median(ests, axis=0)

    def query_min(self, q, rng: np.random.Generator) -> int:
        """Id of the point with the largest estimated distance (ties: lowest id).

        The largest estimated distance is the smallest estimated inner
        product, so this doubles as approximate furthest neighbor and
        approximate Min-IP.
        """
        if not len(self._store):
            raise NotFound("query on an estimator whose points were all deleted")
        d = self.distance_estimates(q, rng)
        ids = self._store.ids
        return int(ids[np.lexsort((ids, -d))[0]])


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise PreconditionViolation(f"{what} must be finite")
