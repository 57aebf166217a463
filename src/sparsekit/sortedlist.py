"""Ordered multiset of (key, payload id) pairs with threshold range queries.

A plain Python list kept sorted: a build sorts once, a threshold search is
an O(log n) bisect plus the slice it returns, and an insert is an O(n)
insort.  Payloads disambiguate equal keys, so deleting a point whose key
collides with another removes exactly one matching pair.  No module of the
package uses it since the AFN projection lists became arrays (see afn);
perfbench/layers.py still traces its insert and delete, so it stays until
the benchmark drops those sites.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter

from .errors import NotFound

__all__ = ["SortedKeyList"]

_KEY = itemgetter(0)


class SortedKeyList:
    def __init__(self, pairs=()):
        """Hold the (key, payload) tuples of `pairs`, sorted once."""
        self._items = sorted(pairs)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def insert(self, key: float, payload) -> None:
        insort(self._items, (key, payload))

    def delete(self, key: float, payload) -> None:
        pair = (key, payload)
        i = bisect_left(self._items, pair)
        if i == len(self._items) or self._items[i] != pair:
            raise NotFound(f"pair ({key}, {payload}) not stored")
        del self._items[i]

    def search_leq(self, threshold: float) -> list:
        """Entries with key <= threshold, ascending key order."""
        return self._items[: bisect_right(self._items, threshold, key=_KEY)]

    def search_geq(self, threshold: float) -> list:
        """Entries with key >= threshold, ascending key order."""
        return self._items[bisect_left(self._items, threshold, key=_KEY) :]
