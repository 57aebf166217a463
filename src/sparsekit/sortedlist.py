"""Ordered multiset of (key, payload id) pairs with threshold range queries.

Backed by sortedcontainers.SortedList, whose add/remove/bisect run in
O(log n) comparisons.  Payloads disambiguate equal keys, so deleting a point
whose key collides with another removes exactly one matching pair.
"""

from __future__ import annotations

from sortedcontainers import SortedList

from .errors import NotFound

__all__ = ["SortedKeyList"]


class SortedKeyList:
    def __init__(self, pairs=()):
        """Hold the (key, payload) tuples of `pairs`, sorted once."""
        self._items = SortedList(pairs)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def insert(self, key: float, payload) -> None:
        self._items.add((key, payload))

    def delete(self, key: float, payload) -> None:
        try:
            self._items.remove((key, payload))
        except ValueError:
            raise NotFound(f"pair ({key}, {payload}) not stored") from None

    def search_leq(self, threshold: float):
        """Entries with key <= threshold, ascending key order."""
        stop = self._items.bisect_right((threshold, _INF_PAYLOAD))
        return self._items.islice(0, stop)

    def search_geq(self, threshold: float):
        """Entries with key >= threshold, ascending key order."""
        start = self._items.bisect_left((threshold, _NEG_INF_PAYLOAD))
        return self._items.islice(start, len(self._items))


class _AlwaysGreater:
    """Sorts after every payload, making (t, _INF_PAYLOAD) an upper sentinel."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


class _AlwaysSmaller:
    def __lt__(self, other):
        return True

    def __gt__(self, other):
        return False


_INF_PAYLOAD = _AlwaysGreater()
_NEG_INF_PAYLOAD = _AlwaysSmaller()
