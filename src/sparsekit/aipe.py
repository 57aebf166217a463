"""Adaptive inner-product estimation through robust distance estimation.

The estimator stores the dataset under the unit-sphere transform and keeps a
pool of seeded Gaussian JL sketches, sized for the failure probability
afn.DELTA.  Each query samples a few pool members (caller-supplied RNG),
estimates every point's distance to the query under each sampled sketch, and
reports per-point medians; medians over independently sampled sketches are
what make the estimates stable under adaptively chosen queries.  Inner-product estimates follow from
w_i = D * (1 - d_i^2 / 2).

Pool member j is the s_dim x (D+2) Gaussian S_j drawn from the j-th child of
the root SeedSequence; the child is derived when j is first sampled, never
spawned up front.  Only the triangular QR factor R_j of S_j, at most
(D+2) x (D+2), is cached: ||S_j v|| = ||R_j v|| for every v, so a sketch
costs O(m D^2) per query instead of O(m s_dim D).  Points live in a
PointStore (one contiguous array; deletes swap-remove).  Mutations need
exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .afn import DELTA
from .errors import DimensionMismatch, PreconditionViolation
from .minip import minip_transform_dataset, minip_transform_query
from .pointstore import PointStore

__all__ = ["AipeConfig", "InnerProductEstimator"]


@dataclass
class AipeConfig:
    """Pool sizes for the distance-estimation core; desk profile = 0.25."""

    scale: float = 1.0

    @classmethod
    def desk(cls) -> "AipeConfig":
        return cls(scale=0.25)

    def sketch_dim(self, eps: float) -> int:
        # accuracy-critical: never reduced by the profile
        return math.ceil(8.0 / eps**2)

    def pool_size(self, s_dim: int, m: int) -> int:
        raw = (s_dim + math.log(1.0 / DELTA)) * math.log(max(m, 2))
        return max(3, math.ceil(self.scale * raw))

    def sample_count(self, pool: int) -> int:
        raw = 3.0 * math.log(max(pool, 2))
        return min(pool, max(3, math.ceil(self.scale * raw)))


class InnerProductEstimator:
    """All-points inner-product estimates that stay valid under adaptivity."""

    def __init__(self, points, eps: float, seed, config: AipeConfig = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 1:
            raise PreconditionViolation("need at least one point")
        self.config = config or AipeConfig()
        self.eps = float(eps)
        self.dim = pts.shape[1]
        self.radius = float(np.linalg.norm(pts, axis=1).max())
        if self.radius <= 0.0:
            self.radius = 1.0
        self.s_dim = self.config.sketch_dim(self.eps)
        self.pool = self.config.pool_size(self.s_dim, pts.shape[0])
        self._root_seed = np.random.SeedSequence(seed)
        self._factors: dict[int, np.ndarray] = {}
        self._store = PointStore(pts)

    @property
    def count(self) -> int:
        return len(self._store)

    def insert(self, z) -> int:
        """Add a point; the dataset radius only ever grows (monotone bound)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(f"expected a vector of dim {self.dim}, got shape {z.shape}")
        self.radius = max(self.radius, float(np.linalg.norm(z)))
        return self._store.add(z)

    def delete(self, pid: int) -> None:
        self._store.remove(pid)

    def _factor(self, j: int) -> np.ndarray:
        """R with ||S_j v|| = ||R v||, S_j the j-th pool member's Gaussian sketch."""
        R = self._factors.get(j)
        if R is None:
            root = self._root_seed
            # bit-identical to root.spawn(pool)[j], without spawning the pool
            child = np.random.SeedSequence(
                root.entropy, spawn_key=root.spawn_key + (j,), pool_size=root.pool_size
            )
            gen = np.random.Generator(np.random.Philox(child))
            S = gen.standard_normal((self.s_dim, self.dim + 2)) / math.sqrt(self.s_dim)
            R = np.linalg.qr(S, mode="r")
            self._factors[j] = R
        return R

    def distance_estimates(self, q, rng: np.random.Generator) -> np.ndarray:
        """Median per-point distance estimates in the transformed space.

        Entry i belongs to the point in slot i; `query_min` maps slots to ids.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise DimensionMismatch(f"expected a query of dim {self.dim}, got shape {q.shape}")
        # transformed afresh: an insert may have grown the radius
        aug, _ = minip_transform_dataset(self._store.points, self.radius)
        qa, _ = minip_transform_query(q, 1.0)
        diff = aug - qa
        picks = rng.choice(self.pool, size=self.config.sample_count(self.pool), replace=False)
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
        d = self.distance_estimates(q, rng)
        ids = self._store.ids
        return int(ids[np.lexsort((ids, -d))[0]])
