"""Random-projection furthest-neighbor batteries over a shared PointStore.

A battery is R independent replicas of one structure, held in arrays and
queried in lockstep: one replica per key, and R = 1 is one structure.  A
key is the two 64-bit words that key a counter-based Philox stream (Salmon
et al., SC'11), so R streams cost R keys.  philox_keys derives each as
SeedSequence(entropy, spawn_key=...) hands it to np.random.Philox: numpy's
SeedSequence mixes the entropy and the leading int spawn words once, and
one vectorized pass mixes the rest into all R and hashes them out.
gaussian_matrix reads each stream from one Philox bit generator, rekeyed.

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
sorts all rows with one stable argsort by key, the (key, id) order of ids
0..n-1; then it inserts every live point the store has added since, in id
order.  The store issues ids in increasing order, so an insert's id exceeds
every listed one and it ranks by key alone.  So a structure may be built
long after its store: it holds the pairs one built with the store would
hold, less those of ids added and removed in between, sizes itself from the
store's initial count, and answers alike.  The post-check reads each live
point's distance from q, computed once per probe of q and shared by every
radius asked.

AfnStructure holds one DFN battery and binary-searches each replica's
radius between bw/2 and sqrt(d)/eps * bw, where bw is the store's boxwidth,
the longest side of the live points' bounding box; the R bisections run in
lockstep.

Directions and search rounds follow the Theta(.) sizes with leading
constant 1, multiplied by SCALE = 0.25 before the ceiling; the Min-IP
index, the sketch ensemble and the AIPE pool read the same SCALE.  DELTA
is the one failure probability that these sizes, the AIPE pool and the
Min-IP index all read.

Builds and updates need exclusive access; queries change nothing, and are
safe to run concurrently between mutations.
The Min-IP index builds its batteries on demand, inside its queries, so its
queries need exclusive access (see minip).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .pointstore import PointStore

__all__ = [
    "DELTA",
    "SCALE",
    "DfnStructure",
    "AfnStructure",
    "gaussian_matrix",
    "philox_keys",
    "rekey",
    "solve_threshold",
]

#: failure probability of every search structure: AFN, AIPE and the Min-IP index
DELTA = 0.1
#: multiplier of every Theta(.) count: AFN sizes, Min-IP replicas, ensemble and
#: samples, AIPE pool and samples
SCALE = 0.25


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # 32-bit words in a SeedSequence pool


def _words(entropy) -> int:
    """How many 32-bit words SeedSequence reads from `entropy`; TypeError on a str or bytes."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    if isinstance(entropy, (str, bytes)):  # SeedSequence would read '0x10' as 16
        raise TypeError(f"entropy must be ints, not {entropy!r}")
    return sum(_words(item) for item in entropy)


def _spawn_word(word):
    """An int word as an int, an array word as uint32 (checked in numpy), each below 2**32."""
    if type(word) is int or isinstance(word, np.integer):
        if 0 <= word <= _MASK32:
            return int(word)
    elif (array := np.asarray(word)).dtype.kind in "ui":
        if 0 <= array.min(initial=0) and array.max(initial=0) <= _MASK32:
            return array.astype(np.uint32)
    raise ValueError(f"each spawn word must be an int below 2**32, not {word!r}")


def _consts(first: int, mult: int, start: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants first * mult**k mod 2**32, k = start..start + count."""
    head = first * pow(mult, start, 1 << 32) & _MASK32
    return np.array([head] + [mult] * count, np.uint32).cumprod(dtype=np.uint32)[:, None]


def _hash(value, const):
    """SeedSequence's hashmix of uint32 arrays: row k under const[k], times const[k + 1]."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ value >> 16


def _mix(x, y):
    x = _MIX_L * x - _MIX_R * y
    return x ^ x >> 16


def philox_keys(entropy, *spawn_key) -> np.ndarray:
    """(count, 2) uint64 Philox keys: row i is SeedSequence(entropy,
    spawn_key=(w[i] for w in spawn_key)).generate_state(2, np.uint64), the
    key np.random.Philox takes from that SeedSequence.

    `entropy` is a non-negative int or a sequence of them (a str or bytes,
    which SeedSequence would parse, is a TypeError).  Each spawn word is an
    int below 2**32 or an array of them; arrays broadcast, and count is the
    size of their broadcast (1 when every word is an int).  Numpy's
    SeedSequence mixes the entropy and the leading int spawn words into one
    pool of four words; this function then mixes the rest, from the first
    array on, into all count rows at once, and hashes each row out as
    generate_state does.
    """
    spawn = [_spawn_word(word) for word in spawn_key]
    lead = next((i for i, word in enumerate(spawn) if getattr(word, "ndim", 0)), len(spawn))
    # SeedSequence hashes 4 times to fill the pool, 12 to cross-mix it and 4
    # per later word: 4 per word it reads, and it reads at least 4, since a
    # spawned one pads short entropy to the pool and an unspawned one hashes
    # the missing words as 0, which fills the same pool.  So the array
    # words' hashes start at this constant.
    start = _POOL * (max(_words(entropy), _POOL) + lead)
    pool = np.random.SeedSequence(entropy, spawn_key=[int(w) for w in spawn[:lead]]).pool
    arrays = np.broadcast_arrays(*(np.asarray(word, np.uint32) for word in spawn[lead:]))
    const = _consts(_INIT_A, _MULT_A, start, _POOL * len(arrays))
    state = pool[:, None]  # (pool, count)
    for i, word in enumerate(arrays):
        state = _mix(state, _hash(word.ravel(), const[_POOL * i : _POOL * (i + 1) + 1]))
    state = np.ascontiguousarray(_hash(state, _consts(_INIT_B, _MULT_B, 0, _POOL)).T)
    # word pairs read little-endian, as generate_state reads them
    return state.astype("<u4").view("<u8").astype(np.uint64)


def rekey(bitgen: np.random.Philox, key) -> None:
    """Restart `bitgen` at the start of the stream that `key` (two uint64
    words) names: counter 0 and an empty buffer, the state
    np.random.Philox(key=key) starts in."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def gaussian_matrix(rows: int, cols: int, keys) -> np.ndarray:
    """(len(keys), rows, cols) standard normals: Box-Muller over one
    counter-based Philox stream per key (see philox_keys).

    Philox keyed per replica makes structures bit-reproducible across runs
    and platforms regardless of draw order elsewhere.  One bit generator
    is restarted at each key.  Each stream's first rows * cols uniforms
    (raw >> 11) * 2^-53 feed the logarithm and the next rows * cols the
    cosine, as two Generator.random calls would draw them.
    """
    n = rows * cols
    keys = np.asarray(keys, dtype=np.uint64)
    bitgen = np.random.Philox(0)  # its own seed is never read: rekeyed below
    u = np.empty((len(keys), 2 * n), dtype=np.uint64)
    for row, key in zip(u, keys.tolist()):
        rekey(bitgen, key)
        row[:] = bitgen.random_raw(2 * n)
    u = (u >> 11) * 2.0**-53
    u1 = 1.0 - u[:, :n]  # (0, 1], keeps log finite
    u2 = u[:, n:]
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return g.reshape(len(keys), rows, cols)


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
    replica per key (a (R, 2) array of Philox keys, see philox_keys)."""

    def __init__(self, store: PointStore, cbar: float, keys):
        if not cbar > 1.0:  # False on NaN, so NaN is refused too
            raise ConfigError(f"cbar={cbar} violates cbar > 1")
        base = store.initial_points  # never empty: a PointStore refuses zero rows
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.n0 = len(base)
        self.ell = _direction_count(self.n0, self.cbar)
        self.t = solve_threshold(self.n0)
        self.replicas = len(keys)
        self.directions = gaussian_matrix(self.ell, self.dim, keys)  # (R, ell, dim)
        rows = self.replicas * self.ell
        proj = (self.directions @ base.T).reshape(rows, self.n0)
        # ids 0..n0-1 in order: a stable sort by key is the (key, id) order
        self.ids = np.argsort(proj, axis=-1, kind="stable")
        self.keys = np.take_along_axis(proj, self.ids, axis=-1)
        ids = store.ids
        for pid in ids[ids >= self.n0].tolist():  # live points added since, ascending
            self.insert(pid)

    def insert(self, pid) -> None:
        """Index the stored point `pid`, which must exceed every id listed, in
        every replica: one pair per row, spliced in at its (key, id) rank,
        which is then the count of keys <= its own."""
        key = (self.directions @ self.store[pid]).reshape(-1, 1)
        rows, n = self.keys.shape
        # flat position row*n + rank; np.insert keeps the order of equal
        # positions, so a row's last slot still precedes the next row's first
        at = np.arange(rows) * n + (self.keys <= key).sum(axis=1)
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
        if not (r > 0.0).all():  # False on NaN, so NaN is refused too
            raise ConfigError(f"radius r={r.min()} violates r > 0")
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
    """Furthest-neighbor search by radius bisection, one replica per key.

    AFN amplifies success with ceil(SCALE * max(ln ln(d / (eps DELTA)), 1))
    independent DFN copies.  At SCALE = 0.25 that count is 2 or more only
    when ln(d / (0.1 eps)) > e^4, that is d / eps > 5.1e22, and eps is kept
    at 1e-9 or more, so it is 1 for every input this package can hold.
    """

    def __init__(self, store: PointStore, cbar: float, keys):
        self.store = store
        self.dim = store.dim
        self.cbar = float(cbar)
        self.eps = max(self.cbar - 1.0, 1e-9)
        self.rounds = _search_rounds(self.dim, self.eps)
        self._dfn = DfnStructure(store, cbar, keys)

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
