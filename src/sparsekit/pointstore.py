"""Points keyed by integer id, held in one contiguous array.

A PointStore is the single copy of a point set that several search
structures read.  Rows sit in insertion order until a delete swap-removes
one (the last row fills the hole), so row order carries no meaning; ids do.
The store issues the ids, in increasing order and never reusing one, so two
stores built over the same n points and given the same adds agree on ids.
It also keeps the n rows it was built with, unchanged, so a structure built
over it later can index them exactly as one built with the store would.
Reads copy, so a returned point never changes under a later mutation.
Mutations need exclusive access.
"""

from __future__ import annotations

import numpy as np

from .errors import NotFound

__all__ = ["PointStore"]


class PointStore:
    def __init__(self, points):
        """Store the rows of the (n, dim) array `points`, n >= 1, under ids 0..n-1."""
        rows = np.array(points, dtype=float, ndmin=2)
        n = rows.shape[0]
        self._initial = rows.copy()
        self._initial.flags.writeable = False
        self._rows = rows
        self._ids = np.arange(n)
        self._slot = dict(zip(range(n), range(n)))
        self._n = n
        self._next_id = n
        self._boxwidth = None

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    def __len__(self) -> int:
        return self._n

    def __contains__(self, pid) -> bool:
        return pid in self._slot

    def __getitem__(self, pid) -> np.ndarray:
        slot = self._slot.get(pid)
        if slot is None:
            raise NotFound(f"point id {pid!r} not stored")
        return self._rows[slot].copy()

    @property
    def points(self) -> np.ndarray:
        """The live rows, in slot order (a view: valid until the next mutation)."""
        return self._rows[: self._n]

    @property
    def initial_points(self) -> np.ndarray:
        """The rows the store was built with, under ids 0..n-1, deleted or not (read-only)."""
        return self._initial

    @property
    def ids(self) -> np.ndarray:
        """The id of each row of `points`."""
        return self._ids[: self._n]

    @property
    def next_id(self) -> int:
        """The id the next add will issue: every id issued so far is below it."""
        return self._next_id

    def add(self, p) -> int:
        """Store p under a new id, larger than every earlier one; return the id."""
        pid = self._next_id
        self._next_id += 1
        if self._n == len(self._rows):  # full: double the capacity
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._ids = np.concatenate([self._ids, np.empty_like(self._ids)])
        self._rows[self._n] = p
        self._ids[self._n] = pid
        self._slot[pid] = self._n
        self._n += 1
        self._boxwidth = None
        return pid

    def remove(self, pid) -> None:
        slot = self._slot.pop(pid, None)
        if slot is None:
            raise NotFound(f"point id {pid!r} not stored")
        last = self._n - 1
        if slot != last:
            self._rows[slot] = self._rows[last]
            self._ids[slot] = self._ids[last]
            self._slot[int(self._ids[slot])] = slot
        self._n = last
        self._boxwidth = None

    @property
    def boxwidth(self) -> float:
        """Longest side of the live points' bounding box; computed once per mutation."""
        if self._boxwidth is None:
            if not self._n:
                raise NotFound("empty store has no boxwidth")
            P = self.points
            self._boxwidth = float((P.max(axis=0) - P.min(axis=0)).max())
        return self._boxwidth

    def lowest_id(self) -> int:
        """The smallest live id: the earliest inserted when ids are issued in order."""
        return int(self.ids.min())
