"""Random-projection furthest-neighbor structures over a shared PointStore.

Neither structure holds points.  Both read coordinates from a PointStore
that their owner fills and empties; `insert(pid)` indexes a point the owner
has added, so a point must be in the store when it is inserted into a
structure.  The store alone records which ids are live: removing an id from
it retires the point from every structure reading that store, and queries
skip the (key, id) pairs it leaves behind.  That is sound because the store
never reissues an id, and the lists grow only by inserts.  Many structures
may share one store.

DfnStructure answers fixed-radius decision queries: given (q, r), either
return a point at distance >= r / cbar (post-checked before returning) or
Fail (None).  It keeps one sorted list of projections per Gaussian
direction; points far from q in some direction are candidates.  A build
projects the whole store with one GEMM and sorts each list once.

AfnStructure wraps several independent DFN copies and binary-searches the
radius between bw/2 and sqrt(d)/eps * bw, where bw is the store's boxwidth,
the longest side of the live points' bounding box.

Directions, copies and search rounds follow the Theta(.) sizes with leading
constant 1, multiplied by the owner's `scale` before the ceiling (the Min-IP
index passes minip.SCALE = 0.25).  DELTA is the one failure probability that
these sizes, the AIPE pool and the Min-IP index all read.

Builds and updates need exclusive access; queries change nothing but the
store's boxwidth cache and are safe to run concurrently between mutations.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .pointstore import PointStore
from .sortedlist import SortedKeyList

__all__ = ["DELTA", "DfnStructure", "AfnStructure", "gaussian_matrix", "solve_threshold"]

#: failure probability of every search structure: AFN, AIPE and the Min-IP index
DELTA = 0.1


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def gaussian_matrix(rows: int, cols: int, seed) -> np.ndarray:
    """Standard normals via Box-Muller over counter-based Philox streams.

    Philox keyed by the seed makes structures bit-reproducible across runs
    and platforms regardless of draw order elsewhere.
    """
    gen = np.random.Generator(np.random.Philox(seed))
    n = rows * cols
    u1 = 1.0 - gen.random(n)  # (0, 1], keeps log finite
    u2 = gen.random(n)
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return g.reshape(rows, cols)


@lru_cache(maxsize=None)
def solve_threshold(n: int) -> float:
    """The t >= 1 solving e^{t^2/2} / t = 2n, by bisection.

    The map is increasing on [1, inf) and e^{1/2} < 2 <= 2n, so the root
    exists and is unique on that branch.  Pure, so memoised: every structure
    built over n points asks for the same root.
    """
    target = 2.0 * n

    def f(t: float) -> float:
        return math.exp(t * t / 2.0) / t - target

    lo, hi = 1.0, 2.0
    while f(hi) < 0.0:
        hi *= 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _direction_count(n: int, cbar: float, scale: float) -> int:
    """Gaussian directions of one DFN structure over n points, scaled."""
    expo = 1.0 / cbar**2
    logn = max(math.log(max(n, 2)), 1.0)
    raw = n**expo * logn ** ((1.0 - expo) / 2.0)
    return max(1, math.ceil(scale * raw))


def _copy_count(d: int, eps: float, scale: float) -> int:
    """DFN copies of one AFN structure: ceil(log log(d / (eps DELTA))), scaled."""
    raw = math.log(max(math.log(max(d / (eps * DELTA), 3.0)), 1.5))
    return max(1, math.ceil(scale * max(raw, 1.0)))


def _search_rounds(d: int, eps: float, scale: float) -> int:
    """Radius bisection rounds of one AFN query: ceil(log(d / (eps DELTA))), scaled."""
    raw = math.log(max(d / (eps * DELTA), 2.0))
    return max(1, math.ceil(scale * raw))


class DfnStructure:
    """Fixed-radius decision version of approximate furthest neighbor."""

    def __init__(self, store: PointStore, cbar: float, seed, scale: float = 1.0):
        if cbar <= 1.0:
            raise ValueError("cbar must exceed 1")
        if not len(store):
            raise ValueError("need at least one point")
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.n0 = len(store)
        self.ell = _direction_count(self.n0, self.cbar, scale)
        self.t = solve_threshold(self.n0)
        self.seed = seed
        self.directions = gaussian_matrix(self.ell, self.dim, seed)
        ids = store.ids.tolist()
        keys = (self.directions @ store.points.T).tolist()  # (ell, n)
        self._lists = [SortedKeyList(zip(row, ids)) for row in keys]

    def insert(self, pid) -> None:
        """Index the stored point `pid`."""
        keys = (self.directions @ self.store[pid]).tolist()
        for key, lst in zip(keys, self._lists):
            lst.insert(key, pid)

    def projection_list(self, i: int) -> SortedKeyList:
        return self._lists[i]

    def query(self, q, r: float):
        """A (pid, point) at distance >= r/cbar from q, or None.

        Collects at most 2*ell + 1 live candidates whose projection gap
        exceeds r t / cbar across the directions, then returns the farthest
        candidate passing the distance post-check.  Pairs of ids the store
        no longer holds are skipped before they count toward the cap.
        """
        if r <= 0.0:
            raise ValueError("radius must be positive")
        q = np.asarray(q, dtype=float)
        T = r * self.t / self.cbar
        cap = 2 * self.ell + 1
        store = self.store
        seen = {}
        proj_q = self.directions @ q
        for i in range(self.ell):
            if len(seen) >= cap:
                break
            center = float(proj_q[i])
            for key, pid in self._lists[i].search_leq(center - T):
                if len(seen) >= cap:
                    break
                if pid in store:
                    seen.setdefault(pid, key)
            for key, pid in self._lists[i].search_geq(center + T):
                if len(seen) >= cap:
                    break
                if pid in store:
                    seen.setdefault(pid, key)
        best = None
        best_dist = r / self.cbar
        for pid in seen:
            p = store[pid]
            dist = float(np.linalg.norm(p - q))
            if dist >= best_dist:
                best_dist = dist
                best = (pid, p)
        return best


class AfnStructure:
    """Amplified furthest-neighbor search over independent DFN copies."""

    def __init__(self, store: PointStore, cbar: float, seed, scale: float = 1.0):
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.eps = max(self.cbar - 1.0, 1e-9)
        self.copies = _copy_count(self.dim, self.eps, scale)
        self.rounds = _search_rounds(self.dim, self.eps, scale)
        seeds = _seed_sequence(seed).spawn(self.copies)
        self._dfns = [DfnStructure(store, cbar, seeds[i], scale) for i in range(self.copies)]

    def insert(self, pid) -> None:
        """Index the stored point `pid` in every DFN copy."""
        for dfn in self._dfns:
            dfn.insert(pid)

    def _query_all_copies(self, q, r: float):
        for dfn in self._dfns:
            hit = dfn.query(q, r)
            if hit is not None:
                return hit
        return None

    def query(self, q):
        """An approximate furthest neighbor (pid, point) of q, or None.

        Binary search brackets the largest radius at which some DFN copy
        still answers; the witness from the highest successful radius is
        returned.  A zero boxwidth means all points coincide, so any stored
        point is exact: the lowest id is returned.
        """
        q = np.asarray(q, dtype=float)
        bw = self.store.boxwidth
        if bw == 0.0:
            pid = self.store.lowest_id()
            return pid, self.store[pid]
        lo = bw / 2.0
        hi = math.sqrt(self.dim) / self.eps * bw
        best = self._query_all_copies(q, lo)
        for _ in range(self.rounds):
            mid = 0.5 * (lo + hi)
            hit = self._query_all_copies(q, mid)
            if hit is not None:
                best = hit
                lo = mid
            else:
                hi = mid
        return best
