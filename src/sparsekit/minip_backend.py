"""One approximate Min-IP backend shared by the greedy solvers.

Kadison-Singer selection and experimental-design swap rounding both ask the
same question each step: which stored row x of a family has the smallest
score <Q, x x^T> for a d x d query matrix Q?  This module answers it over
the points vec(x x^T) with one of two structures that accept adaptively
chosen queries:

    "aipe"  InnerProductEstimator (adaptive inner-product estimation)
    "afn"   RobustMinIpIndex (sketched approximate furthest neighbour)

It owns the (c, tau) window checks (0 < tau < c < 1 for both kinds, by
minip.check_window, and aipe's upper end on c), the scaling of the query
by tau, the map between the structure's point ids and the family's row
indices, and, for "afn", the unit-sphere transform of every stored point:
one D_X, the largest |vec(x x^T)| = |x|^2 over all of X, serves the build
and every later insert, so a row is the same unit point whenever it is
stored.  The row -> id map is one int array over the rows of X, -1 for a
row not stored, filled in one assignment at build.  Retiring a row that is
not stored (NotFound), inserting one that is (PreconditionViolation) and
naming an index outside X's rows (NotFound) are refused before any
structure changes, so the map and the structure's count always agree.
Both structures size themselves for the failure probability afn.DELTA.
Solvers ask for proposals through linalg.propose_or_scan.
"""

from __future__ import annotations

import math

import numpy as np

from .aipe import InnerProductEstimator
from .errors import ConfigError, NotFound, PreconditionViolation
from .minip import RobustMinIpIndex, check_window, minip_transform_dataset, minip_transform_query

__all__ = ["MinIpBackend"]


class MinIpBackend:
    """Approximate Min-IP over vec(x x^T) for a changing set of family rows."""

    def __init__(self, kind: str, X: np.ndarray, rows, c: float, tau: float, seed: int):
        """Store the rows `rows` of the (m, d) family `X`.

        Rows inserted later may be any row of X: the afn transform's
        diameter D_X is taken over all of them.
        """
        if kind not in ("aipe", "afn"):
            raise ConfigError(f"unknown backend {kind!r}")
        if c is None or tau is None:
            raise ConfigError(f"{kind} backend needs both c and tau")
        check_window(c, tau)
        hi = 1.01 * tau / (0.01 + tau)
        if kind == "aipe" and not c < hi:
            raise ConfigError(f"c={c} violates c < 1.01*tau/(0.01+tau) = {hi}")
        self.kind = kind
        self.tau = tau
        self._X = X
        rows = np.asarray(rows, dtype=int)
        points = self._points(rows)
        if kind == "aipe":
            # distance ratio this (c, tau) demands: (1+eps)^2 = c(1-tau)/(c-tau)
            eps = math.sqrt(c * (1.0 - tau) / (c - tau)) - 1.0
            self._index = InnerProductEstimator(points, eps, seed)
        else:
            self._D_X = float(np.max(np.linalg.norm(X, axis=1) ** 2))
            self._index = RobustMinIpIndex(
                minip_transform_dataset(points, self._D_X)[0], c=c, tau=tau, seed=seed
            )
        # both structures issue pids 0, 1, 2, ... in order, starting with the
        # initial rows, and never answer a retired pid: pid -> row is a list
        # that retire leaves alone and insert appends to
        self._row_of = rows.tolist()
        self._pid_of = np.full(len(X), -1)  # row -> pid, -1 for a row not stored
        self._pid_of[rows] = np.arange(len(rows))

    def _points(self, rows) -> np.ndarray:
        """vec(x x^T) of each listed row of X, one per output row."""
        Y = self._X[rows]
        return (Y[:, :, None] * Y[:, None, :]).reshape(len(Y), Y.shape[1] ** 2)

    def propose(self, Q: np.ndarray, rng: np.random.Generator):
        """A stored row with approximately minimal <tau Q, x x^T>, or None.

        Both structures answer live ids only, each the id of a stored row.
        """
        q = self.tau * np.ravel(Q)
        norm = np.linalg.norm(q)
        if norm == 0.0:
            return None
        if self.kind == "aipe":
            return self._row_of[self._index.query_min(q / max(norm, 1.0), rng)]
        hit = self._index.query(minip_transform_query(q)[0], rng)
        return None if hit is None else self._row_of[hit[0]]

    def retire(self, row: int) -> None:
        """Remove a stored row; it is never proposed again unless re-inserted.

        A row that is not stored is refused with NotFound, before any change.
        """
        pid = int(self._pid_of[row]) if 0 <= row < len(self._pid_of) else -1
        if pid < 0:
            raise NotFound(f"row {row} is not stored")
        self._index.delete(pid)
        self._pid_of[row] = -1

    def insert(self, row: int) -> None:
        """Store another row of X.

        A row that is stored already is refused with PreconditionViolation,
        and an index outside X's rows with NotFound, before any change.
        """
        if not 0 <= row < len(self._pid_of):
            raise NotFound(f"row {row} is not a row of X")
        if self._pid_of[row] >= 0:
            raise PreconditionViolation(f"row {row} is stored already")
        point = self._points([row])[0]
        if self.kind == "afn":
            point = minip_transform_dataset(point, self._D_X)[0][0]
        self._pid_of[row] = self._index.insert(point)
        self._row_of.append(row)
