"""Random-projection furthest-neighbor batteries over a shared PointStore.

A battery is R independent replicas of one structure, held in arrays and
queried in lockstep: one seed per replica, and R = 1 is one structure.

Neither structure holds points.  Both read coordinates from a PointStore
that their owner fills and empties; `insert(pid)` indexes a point the owner
has added, so a point must be in the store when it is inserted into a
structure.  The store alone records which ids are live: removing an id from
it retires the point from every structure reading that store, and queries
skip the (key, id) pairs it leaves behind.  That is sound because the store
never reissues an id, and the lists grow only by inserts.  Many structures
may share one store.

DfnStructure answers fixed-radius decision queries: given (q, r), each
replica either names a point at distance >= r / cbar (post-checked) or
fails (-1).  A replica keeps ell Gaussian directions and, per direction,
the (key, id) pairs of the projections sorted by key, then id: the keys and
ids of all R replicas are two (R * ell, n) arrays.  Points far from q in
some direction are candidates.  A build draws every replica's directions
in one pass, projects the store's initial points with one batched GEMM and
sorts all rows with one lexsort; then it inserts every live point the store
has added since, in id order.  So a structure may be built long after its
store: it holds the pairs one built with the store would hold, less those
of ids added and removed in between, sizes itself from the store's initial
count, and answers alike.  The post-check reads each live point's distance
from q, computed once per probe of q and shared by every radius asked.

AfnStructure holds one DFN battery and binary-searches each replica's
radius between bw/2 and sqrt(d)/eps * bw, where bw is the store's boxwidth,
the longest side of the live points' bounding box; the R bisections run in
lockstep.

Directions and search rounds follow the Theta(.) sizes with leading
constant 1, multiplied by SCALE = 0.25 before the ceiling; the Min-IP
index, the sketch ensemble and the AIPE pool read the same SCALE.  DELTA
is the one failure probability that these sizes, the AIPE pool and the
Min-IP index all read.

Builds and updates need exclusive access; queries change nothing but the
store's boxwidth cache, and are safe to run concurrently between mutations.
The Min-IP index builds its batteries on demand, inside its queries, so its
queries need exclusive access (see minip).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .pointstore import PointStore

__all__ = ["DELTA", "SCALE", "DfnStructure", "AfnStructure", "gaussian_matrix", "solve_threshold"]

#: failure probability of every search structure: AFN, AIPE and the Min-IP index
DELTA = 0.1
#: multiplier of every Theta(.) count: AFN sizes, Min-IP replicas, ensemble and
#: samples, AIPE pool and samples
SCALE = 0.25


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def gaussian_matrix(rows: int, cols: int, seeds) -> np.ndarray:
    """(len(seeds), rows, cols) standard normals: Box-Muller over one
    counter-based Philox stream per seed.

    Philox keyed by the seed makes structures bit-reproducible across runs
    and platforms regardless of draw order elsewhere.  Each stream's first
    rows * cols uniforms (raw >> 11) * 2^-53 feed the logarithm and the next
    rows * cols the cosine, as two Generator.random calls would draw them.
    """
    n = rows * cols
    u = np.stack([np.random.Philox(seed).random_raw(2 * n) for seed in seeds]) >> 11
    u = u * 2.0**-53
    u1 = 1.0 - u[:, :n]  # (0, 1], keeps log finite
    u2 = u[:, n:]
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return g.reshape(len(seeds), rows, cols)


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
    """Fixed-radius decision version of approximate furthest neighbor, one
    replica per seed."""

    def __init__(self, store: PointStore, cbar: float, seeds):
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
        self.replicas = len(seeds)
        self.directions = gaussian_matrix(self.ell, self.dim, seeds)  # (R, ell, dim)
        rows = self.replicas * self.ell
        keys = (self.directions @ base.T).reshape(rows, self.n0)
        ids = np.broadcast_to(np.arange(self.n0), (rows, self.n0))
        order = np.lexsort((ids, keys), axis=-1)  # each row by key, then id
        self.keys = np.take_along_axis(keys, order, axis=-1)
        self.ids = np.take_along_axis(ids, order, axis=-1)
        ids = store.ids
        for pid in sorted(ids[ids >= self.n0].tolist()):  # live points added since
            self.insert(pid)

    def insert(self, pid) -> None:
        """Index the stored point `pid` in every replica: one pair per row,
        spliced in at its (key, id) rank."""
        key = (self.directions @ self.store[pid]).reshape(-1, 1)
        below = (self.keys < key) | ((self.keys == key) & (self.ids < pid))
        rows, n = self.keys.shape
        # flat position row*n + rank; np.insert keeps the order of equal
        # positions, so a row's last slot still precedes the next row's first
        at = np.arange(rows) * n + below.sum(axis=1)
        self.keys = np.insert(self.keys.ravel(), at, key.ravel()).reshape(rows, n + 1)
        self.ids = np.insert(self.ids.ravel(), at, pid).reshape(rows, n + 1)

    def probe(self, q):
        """What a query about q reads at any radius: the (R * ell, 1) projections
        of q, and for each listed pair whether its id is live and its
        distance from q (NaN for a retired id)."""
        store = self.store
        diff = store.points - q
        dist = np.full(store.next_id, np.nan)
        dist[store.ids] = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
        dist = dist[self.ids]
        return (self.directions @ q).reshape(-1, 1), ~np.isnan(dist), dist

    def query(self, q, r, probe=None) -> np.ndarray:
        """Per replica, the id of a point at distance >= r/cbar from q, or -1.

        `r` is one radius or one per replica.  A replica collects the first
        2*ell + 1 distinct live ids whose projection gap exceeds r t / cbar,
        direction by direction and, within one, keys <= center - gap then
        keys >= center + gap in ascending order; ids the store no longer
        holds are skipped before they count.  It answers the farthest
        candidate passing the distance post-check, the later one on a tie.
        `probe` is self.probe(q), which queries about one q may share.
        """
        r = np.full(self.replicas, r, dtype=float)
        if (r <= 0.0).any():
            raise ValueError("radius must be positive")
        centers, live, dist = self.probe(np.asarray(q, dtype=float)) if probe is None else probe
        R, ell, n = self.replicas, self.ell, self.keys.shape[1]
        gap = np.repeat(r * self.t / self.cbar, ell)[:, None]
        far = (self.keys <= centers - gap) | (self.keys >= centers + gap)
        take = (far & live).reshape(R, ell, n)
        ids = self.ids.reshape(R, ell, n)
        rep = np.arange(R)[:, None]
        seen = np.zeros((R, self.store.next_id), dtype=bool)
        for i in range(1, ell):  # an id counts once, in its first listing direction
            seen[rep, ids[:, i - 1]] |= take[:, i - 1]
            take[:, i] &= ~seen[rep, ids[:, i]]
        take = take.reshape(R, ell * n)
        take &= take.cumsum(axis=1) <= 2 * ell + 1
        dist = dist.reshape(R, ell * n)
        post = np.where(take & (dist >= (r / self.cbar)[:, None]), dist, -np.inf)
        last = ell * n - 1 - post[:, ::-1].argmax(axis=1)  # the later one on a tie
        rep = rep.ravel()
        return np.where(post[rep, last] > -np.inf, ids.reshape(R, -1)[rep, last], -1)


class AfnStructure:
    """Furthest-neighbor search by radius bisection, one replica per seed.

    AFN amplifies success with ceil(SCALE * max(ln ln(d / (eps DELTA)), 1))
    independent DFN copies.  At SCALE = 0.25 that count is 2 or more only
    when ln(d / (0.1 eps)) > e^4, that is d / eps > 5.1e22, and eps is kept
    at 1e-9 or more, so it is 1 for every input this package can hold.
    Each replica's one DFN is seeded as the first copy was, from the first
    child of the replica seed's SeedSequence.
    """

    def __init__(self, store: PointStore, cbar: float, seeds):
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.eps = max(self.cbar - 1.0, 1e-9)
        self.rounds = _search_rounds(self.dim, self.eps)
        self._dfn = DfnStructure(store, cbar, [_seed_sequence(s).spawn(1)[0] for s in seeds])

    def insert(self, pid) -> None:
        """Index the stored point `pid`."""
        self._dfn.insert(pid)

    def query(self, q):
        """The answering replicas' approximate furthest neighbors of q, as
        ids in replica order, or None when no replica answers.

        Each replica's binary search brackets the largest radius at which
        its DFN still answers; the witness from the highest successful
        radius is its answer.  A zero boxwidth means all points coincide,
        so any stored point is exact: every replica answers the lowest id.
        """
        q = np.asarray(q, dtype=float)
        R = self._dfn.replicas
        bw = self.store.boxwidth
        if bw == 0.0:
            return np.full(R, self.store.lowest_id())
        probe = self._dfn.probe(q)
        lo = np.full(R, bw / 2.0)
        hi = np.full(R, math.sqrt(self.dim) / self.eps * bw)
        best = self._dfn.query(q, lo, probe)
        for _ in range(self.rounds):
            mid = 0.5 * (lo + hi)
            hit = self._dfn.query(q, mid, probe)
            found = hit >= 0
            best = np.where(found, hit, best)
            lo = np.where(found, mid, lo)
            hi = np.where(found, hi, mid)
        best = best[best >= 0]
        return best if len(best) else None
