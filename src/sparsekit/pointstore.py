"""Points keyed by integer id, held in one contiguous array.

A PointStore is the single copy of a point set that several search
structures read.  Row i of its array holds the point of id i: an add
appends a row, and a remove only clears the id's bit in a live mask, so a
row never moves and the first n rows stay the n points the store was built
with.  The store issues the ids, in increasing order and never reusing one,
so two stores built over the same n points and given the same adds agree on
ids, and a structure built over it later can index its initial points
exactly as one built with the store would.  An add refuses, with
DimensionMismatch, a point whose shape is not (dim,).  Reads copy and change
nothing, so a returned point never changes under a later mutation;
mutations need exclusive access.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotFound, PreconditionViolation

__all__ = ["PointStore"]


class PointStore:
    def __init__(self, points):
        """Store the rows of the (n, dim) array `points`, n >= 1, under ids 0..n-1."""
        self._rows = np.array(points, dtype=float, ndmin=2)
        if not len(self._rows):  # add doubles the capacity, which 0 rows would keep at 0
            raise PreconditionViolation("a point store needs at least one point")
        self._n0 = self._next_id = self._rows.shape[0]
        self._live = np.ones(self._n0, dtype=bool)  # one bit per row of capacity

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def __len__(self) -> int:
        return np.count_nonzero(self._live)

    def __contains__(self, pid) -> bool:
        return 0 <= pid < self._next_id and bool(self._live[pid])

    def __getitem__(self, pid) -> np.ndarray:
        if pid not in self:
            raise NotFound(f"point id {pid!r} not stored")
        return self._rows[pid].copy()

    @property
    def points(self) -> np.ndarray:
        """The live rows, in ascending id order (a copy)."""
        return self._rows[self._live]

    @property
    def initial_points(self) -> np.ndarray:
        """The rows the store was built with, under ids 0..n-1, deleted or not (read-only)."""
        initial = self._rows[: self._n0]
        initial.flags.writeable = False
        return initial

    @property
    def ids(self) -> np.ndarray:
        """The live ids, ascending: the id of each row of `points`."""
        return np.flatnonzero(self._live)

    @property
    def next_id(self) -> int:
        """The id the next add will issue: every id issued so far is below it."""
        return self._next_id

    def add(self, p) -> int:
        """Store p, of shape (dim,), under a new id larger than every earlier one; return the id."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionMismatch(f"expected a point of dim {self.dim}, got shape {p.shape}")
        pid = self._next_id
        if pid == len(self._rows):  # full: double the capacity
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._live = np.concatenate([self._live, np.zeros_like(self._live)])
        self._rows[pid] = p
        self._live[pid] = True
        self._next_id += 1
        return pid

    def remove(self, pid) -> None:
        if pid not in self:
            raise NotFound(f"point id {pid!r} not stored")
        self._live[pid] = False

    @property
    def boxwidth(self) -> float:
        """Longest side of the live points' bounding box, computed on each read."""
        if not len(self):
            raise NotFound("empty store has no boxwidth")
        P = self.points
        return float((P.max(axis=0) - P.min(axis=0)).max())

    def lowest_id(self) -> int:
        """The smallest live id: the earliest inserted when ids are issued in order."""
        return int(self.ids[0])
