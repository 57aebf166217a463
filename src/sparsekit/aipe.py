"""Adaptive inner-product estimation through robust distance estimation.

The estimator stores the dataset under the unit-sphere transform and keeps a
pool of seeded Gaussian JL sketches.  Each query samples a few pool members
(caller-supplied RNG), estimates every point's distance to the query under
each sampled sketch, and reports per-point medians; medians over
independently sampled sketches are what make the estimates stable under
adaptively chosen queries.  Inner-product estimates follow from
w_i = D * (1 - d_i^2 / 2).

Sketches exist only as seeds; they are materialized on demand and cached, so
memory stays O(m d) plus the cache.  Mutations need exclusive access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotFound
from .minip import minip_transform_dataset, minip_transform_query

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

    def pool_size(self, s_dim: int, m: int, delta: float) -> int:
        raw = (s_dim + math.log(1.0 / delta)) * math.log(max(m, 2))
        return max(3, math.ceil(self.scale * raw))

    def sample_count(self, pool: int) -> int:
        raw = 3.0 * math.log(max(pool, 2))
        return min(pool, max(3, math.ceil(self.scale * raw)))


class InnerProductEstimator:
    """All-points inner-product estimates that stay valid under adaptivity."""

    def __init__(self, points, eps: float, delta: float, seed, config: AipeConfig = None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("need at least one point")
        self.config = config or AipeConfig()
        self.eps = float(eps)
        self.delta = float(delta)
        self.dim = pts.shape[1]
        self.radius = float(np.linalg.norm(pts, axis=1).max())
        if self.radius <= 0.0:
            self.radius = 1.0
        self.s_dim = self.config.sketch_dim(self.eps)
        self.pool = self.config.pool_size(self.s_dim, pts.shape[0], self.delta)
        self._sketch_seeds = np.random.SeedSequence(seed).spawn(self.pool)
        self._sketch_cache: dict[int, np.ndarray] = {}
        self._points: dict[int, np.ndarray] = {}
        self._ids: list[int] = []
        self._next_id = 0
        for p in pts:
            self._append(p)

    def _append(self, p: np.ndarray) -> int:
        pid = self._next_id
        self._next_id += 1
        self._points[pid] = np.asarray(p, dtype=float)
        self._ids.append(pid)
        return pid

    @property
    def count(self) -> int:
        return len(self._ids)

    def insert(self, z) -> int:
        """Add a point; the dataset radius only ever grows (monotone bound)."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"expected a vector of dim {self.dim}")
        self.radius = max(self.radius, float(np.linalg.norm(z)))
        return self._append(z)

    def delete(self, pid: int) -> None:
        if pid not in self._points:
            raise NotFound(f"point id {pid} not stored")
        del self._points[pid]
        self._ids.remove(pid)

    def _sketch(self, j: int) -> np.ndarray:
        S = self._sketch_cache.get(j)
        if S is None:
            gen = np.random.Generator(np.random.Philox(self._sketch_seeds[j]))
            S = gen.standard_normal((self.s_dim, self.dim + 2)) / math.sqrt(self.s_dim)
            self._sketch_cache[j] = S
        return S

    def _transformed(self):
        rows = np.stack([self._points[pid] for pid in self._ids])
        aug, _ = minip_transform_dataset(rows, self.radius)
        return aug

    def distance_estimates(self, q, rng: np.random.Generator) -> np.ndarray:
        """Median per-point distance estimates in the transformed space."""
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dim,):
            raise ValueError(f"expected a query of dim {self.dim}")
        aug = self._transformed()
        qa, _ = minip_transform_query(q, 1.0)
        picks = rng.choice(self.pool, size=self.config.sample_count(self.pool), replace=False)
        ests = np.empty((len(picks), aug.shape[0]))
        for row, j in enumerate(picks):
            S = self._sketch(int(j))
            diff = aug @ S.T - qa @ S.T
            ests[row] = np.linalg.norm(diff, axis=1)
        return np.median(ests, axis=0)

    def query_min(self, q, rng: np.random.Generator) -> int:
        """Id of the point with the largest estimated distance (ties: lowest id).

        The largest estimated distance is the smallest estimated inner
        product, so this doubles as approximate furthest neighbor and
        approximate Min-IP.
        """
        d = self.distance_estimates(q, rng)
        order = np.lexsort((self._ids, -d))
        return self._ids[int(order[0])]
