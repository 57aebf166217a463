"""One approximate Min-IP backend shared by the greedy solvers.

Kadison-Singer selection and experimental-design swap rounding both ask the
same question each step: which stored row x of a family has the smallest
score <Q, x x^T> for a d x d query matrix Q?  This module answers it over
the points vec(x x^T) with one of two structures that accept adaptively
chosen queries:

    "aipe"  InnerProductEstimator (adaptive inner-product estimation)
    "afn"   RobustMinIpIndex (sketched approximate furthest neighbour)

It owns the (c, tau) window checks (0 < tau < c < 1 for both kinds), the
scaling of the query by tau, the map between the structure's point ids and
the family's row indices, and, for "afn", the unit-sphere transform of
every stored point: one D_X, the largest |vec(x x^T)| = |x|^2 over all of
X, serves the build and every later insert, so a row is the same unit
point whenever it is stored.  Both structures size themselves for the
failure probability afn.DELTA.  Proposals are only suggestions: callers
verify the returned row against their own witness inequality.
"""

from __future__ import annotations

import math

import numpy as np

from .aipe import InnerProductEstimator
from .errors import ConfigError
from .minip import MinIpConfig, RobustMinIpIndex, minip_transform_dataset, minip_transform_query

__all__ = ["MinIpBackend"]


class MinIpBackend:
    """Approximate Min-IP over vec(x x^T) for a changing set of family rows."""

    def __init__(
        self,
        kind: str,
        X: np.ndarray,
        rows,
        c: float,
        tau: float,
        seed: int,
        minip_config: MinIpConfig = None,
    ):
        """Store the rows `rows` of the (m, d) family `X`.

        Rows inserted later may be any row of X: the afn transform's
        diameter D_X is taken over all of them.
        """
        if kind not in ("aipe", "afn"):
            raise ConfigError(f"unknown backend {kind!r}")
        if c is None or tau is None:
            raise ConfigError(f"{kind} backend needs both c and tau")
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"tau={tau} violates 0 < tau < 1")
        if not 0.0 < c < 1.0:
            raise ConfigError(f"c={c} violates 0 < c < 1")
        if not tau < c:
            raise ConfigError(f"c={c} violates c > tau={tau}")
        hi = 1.01 * tau / (0.01 + tau)
        if kind == "aipe" and not c < hi:
            raise ConfigError(f"c={c} violates c < 1.01*tau/(0.01+tau) = {hi}")
        self.kind = kind
        self.tau = tau
        self._X = X
        rows = [int(i) for i in rows]
        points = self._points(rows)
        if kind == "aipe":
            # distance ratio this (c, tau) demands: (1+eps)^2 = c(1-tau)/(c-tau)
            eps = math.sqrt(c * (1.0 - tau) / (c - tau)) - 1.0
            self._index = InnerProductEstimator(points, eps, seed)
        else:
            self._D_X = float(np.max(np.linalg.norm(X, axis=1) ** 2))
            self._index = RobustMinIpIndex(
                minip_transform_dataset(points, self._D_X)[0],
                c=c,
                tau=tau,
                seed=seed,
                config=minip_config or MinIpConfig(),
            )
        # both structures number their initial points 0..len(rows)-1
        self._row_of = dict(enumerate(rows))
        self._pid_of = {row: pid for pid, row in self._row_of.items()}

    def _points(self, rows) -> np.ndarray:
        """vec(x x^T) of each listed row of X, one per output row."""
        Y = self._X[rows]
        return (Y[:, :, None] * Y[:, None, :]).reshape(len(Y), Y.shape[1] ** 2)

    def propose(self, Q: np.ndarray, rng: np.random.Generator):
        """A stored row with approximately minimal <tau Q, x x^T>, or None."""
        q = self.tau * np.ravel(Q)
        norm = np.linalg.norm(q)
        if norm == 0.0:
            return None
        if self.kind == "aipe":
            pid = self._index.query_min(q / max(norm, 1.0), rng)
        else:
            hit = self._index.query(minip_transform_query(q)[0], rng)
            pid = None if hit is None else hit[0]
        return self._row_of.get(pid)

    def retire(self, row: int) -> None:
        """Remove a stored row; it is never proposed again unless re-inserted."""
        pid = self._pid_of.pop(row)
        del self._row_of[pid]
        self._index.delete(pid)

    def insert(self, row: int) -> None:
        """Store another row of X; it must not be stored already."""
        point = self._points([row])[0]
        if self.kind == "afn":
            point = minip_transform_dataset(point, self._D_X)[0][0]
        pid = self._index.insert(point)
        self._row_of[pid] = row
        self._pid_of[row] = pid
