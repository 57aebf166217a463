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
projects the store's initial points with one GEMM, sorts each list once,
and then inserts every live point the store has added since, in id order.
So a structure may be built long after its store: it holds the pairs one
built with the store would hold, less those of ids added and removed in
between, sizes itself from the store's initial count, and answers alike.
Its distance post-check reads a pid -> distance table that the caller may
share across queries about one point, so each distance is computed once.

AfnStructure holds one DFN structure and binary-searches the radius between
bw/2 and sqrt(d)/eps * bw, where bw is the store's boxwidth, the longest
side of the live points' bounding box.

Directions and search rounds follow the Theta(.) sizes with leading
constant 1, multiplied by SCALE = 0.25 before the ceiling; the Min-IP
index and the sketch ensemble read the same SCALE.  DELTA is the one
failure probability that these sizes, the AIPE pool and the Min-IP index
all read.

Builds and updates need exclusive access; queries change nothing but the
store's boxwidth cache and the distance table passed in, and are safe to run
concurrently between mutations when each has a table of its own.  The
Min-IP index builds its structures on demand, inside its queries, so its
queries need exclusive access (see minip).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .pointstore import PointStore
from .sortedlist import SortedKeyList

__all__ = ["DELTA", "SCALE", "DfnStructure", "AfnStructure", "gaussian_matrix", "solve_threshold"]

#: failure probability of every search structure: AFN, AIPE and the Min-IP index
DELTA = 0.1
#: multiplier of every Theta(.) count: AFN sizes, Min-IP replicas, ensemble, samples
SCALE = 0.25


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


@lru_cache(maxsize=None)
def _direction_count(n: int, cbar: float) -> int:
    """Gaussian directions of one DFN structure over n points, times SCALE."""
    expo = 1.0 / cbar**2
    logn = max(math.log(max(n, 2)), 1.0)
    raw = n**expo * logn ** ((1.0 - expo) / 2.0)
    return max(1, math.ceil(SCALE * raw))


@lru_cache(maxsize=None)
def _search_rounds(d: int, eps: float) -> int:
    """Radius bisection rounds of one AFN query: ceil(log(d / (eps DELTA))), times SCALE."""
    raw = math.log(max(d / (eps * DELTA), 2.0))
    return max(1, math.ceil(SCALE * raw))


class DfnStructure:
    """Fixed-radius decision version of approximate furthest neighbor."""

    def __init__(self, store: PointStore, cbar: float, seed):
        if cbar <= 1.0:
            raise ValueError("cbar must exceed 1")
        base = store.initial_points
        if not len(base):
            raise ValueError("need at least one point")
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.n0 = len(base)
        self.ell = _direction_count(self.n0, self.cbar)
        self.t = solve_threshold(self.n0)
        self.seed = seed
        self.directions = gaussian_matrix(self.ell, self.dim, seed)
        keys = (self.directions @ base.T).tolist()  # (ell, n0)
        self._lists = [SortedKeyList(zip(row, range(self.n0))) for row in keys]
        ids = store.ids
        for pid in sorted(ids[ids >= self.n0].tolist()):  # live points added since
            self.insert(pid)

    def insert(self, pid) -> None:
        """Index the stored point `pid`."""
        keys = (self.directions @ self.store[pid]).tolist()
        for key, lst in zip(keys, self._lists):
            lst.insert(key, pid)

    def projection_list(self, i: int) -> SortedKeyList:
        return self._lists[i]

    def query(self, q, r: float, dist: dict = None):
        """A (pid, point) at distance >= r/cbar from q, or None.

        Collects at most 2*ell + 1 live candidates whose projection gap
        exceeds r t / cbar across the directions, then returns the farthest
        candidate passing the distance post-check.  Pairs of ids the store
        no longer holds are skipped before they count toward the cap.
        `dist` maps pid to its distance from this q; the post-check reads
        it and fills in what is missing, so callers asking about one q
        several times may share one dict.
        """
        if r <= 0.0:
            raise ValueError("radius must be positive")
        q = np.asarray(q, dtype=float)
        if dist is None:
            dist = {}
        T = r * self.t / self.cbar
        cap = 2 * self.ell + 1
        store = self.store
        seen = {}
        proj_q = (self.directions @ q).tolist()
        for lst, center in zip(self._lists, proj_q):
            for pairs in (lst.search_leq(center - T), lst.search_geq(center + T)):
                for key, pid in pairs:
                    if len(seen) >= cap:
                        break
                    if pid in store:
                        seen.setdefault(pid, key)
            if len(seen) >= cap:
                break
        best = None
        best_dist = r / self.cbar
        for pid in seen:
            d = dist.get(pid)
            if d is None:
                d = dist[pid] = float(np.linalg.norm(store[pid] - q))
            if d >= best_dist:
                best_dist = d
                best = pid
        return None if best is None else (best, store[best])


class AfnStructure:
    """Furthest-neighbor search by radius bisection over one DFN structure.

    AFN amplifies success with ceil(SCALE * max(ln ln(d / (eps DELTA)), 1))
    independent DFN copies.  At SCALE = 0.25 that count is 2 or more only
    when ln(d / (0.1 eps)) > e^4, that is d / eps > 5.1e22, and eps is kept
    at 1e-9 or more, so it is 1 for every input this package can hold.
    The one DFN is seeded as the first copy was, from the first child of
    the seed's SeedSequence.
    """

    def __init__(self, store: PointStore, cbar: float, seed):
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.eps = max(self.cbar - 1.0, 1e-9)
        self.rounds = _search_rounds(self.dim, self.eps)
        self._dfn = DfnStructure(store, cbar, _seed_sequence(seed).spawn(1)[0])

    def insert(self, pid) -> None:
        """Index the stored point `pid`."""
        self._dfn.insert(pid)

    def query(self, q, dist: dict = None):
        """An approximate furthest neighbor (pid, point) of q, or None.

        Binary search brackets the largest radius at which the DFN still
        answers; the witness from the highest successful radius is
        returned.  A zero boxwidth means all points coincide, so any stored
        point is exact: the lowest id is returned.  `dist` is the pid ->
        distance-from-q table the DFN post-check reads and fills (see
        DfnStructure.query); structures over one store may share it for one q.
        """
        q = np.asarray(q, dtype=float)
        if dist is None:
            dist = {}
        bw = self.store.boxwidth
        if bw == 0.0:
            pid = self.store.lowest_id()
            return pid, self.store[pid]
        lo = bw / 2.0
        hi = math.sqrt(self.dim) / self.eps * bw
        best = self._dfn.query(q, lo, dist)
        for _ in range(self.rounds):
            mid = 0.5 * (lo + hi)
            hit = self._dfn.query(q, mid, dist)
            if hit is not None:
                best = hit
                lo = mid
            else:
                hi = mid
        return best
