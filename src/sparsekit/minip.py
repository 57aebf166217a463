"""Robust minimum-inner-product search over an adaptive query sequence.

Pipeline: unit-sphere points are sketched by every member of an ensemble of
seeded tensor JL transforms; each sketch carries a battery of independent
furthest-neighbor replicas over the sketched points.  A query samples
_sample_count ensemble members, quantizes each sketched query to a
lambda-grid (so replica success generalizes over a net of possible
queries), asks the replicas for far points, and converts distance back to
inner product through <p, x> = 1 - ||p - x||^2 / 2.  Candidates violating
the advertised bound tau/c + lambda_tilde are discarded, so a returned
point never violates it.  The index takes unit vectors only: a caller maps
raw rows with minip_transform_dataset first, under one D_X for every row it
will store.  Sizes read the package's failure probability afn.DELTA.  The
index has one size: each sketch is SKETCH_DIM = 16 rows in SKETCH_BLOCKS =
4 blocks, and the replica, ensemble, sample and AFN counts are their
formulas times afn.SCALE = 0.25.

At that size the sample count is 1 for every ensemble, min(k, max(1,
ceil(SCALE ln 16))) = 1, so each query reads the battery of one sketch,
sampled afresh, and no answer combines independently sampled sketches.
Robustness to adaptive queries then rests on that fresh sample alone:
however a query was chosen, it meets a uniformly random member, so it fails
with at most the share of members that fail on it, with no vote across
members to shrink that share.  Within the member, the kappa replicas and
the lambda-grid carry a replica's success over to nearby queries, and the
bound check makes a failure a Fail (None), never a wrong point.

The index owns one PointStore of raw points and one of sketched points per
ensemble member, whose hash polynomials one generator draws, each with its
law (see sketch); a build applies each sketch to the whole point stack in
one call.  The kappa replicas of one sketch form its battery: one
AfnStructure over kappa Philox keys, one replica per key, whose replicas
are drawn, sorted and searched in lockstep as arrays (see afn).  A battery
is built on demand, the first time a query samples its sketch
(battery(j)), with the sizes an eager build would give it and keys derived
from (j, replica) alone, all kappa in one afn.philox_keys pass, so a
KS solve that samples half the sketches builds half the batteries and
answers the same.  A battery reads its sketch's store and holds only its
replicas' directions and sorted (key, id) rows.  The index alone changes
the stores, always all 1 + k together, so the ids they issue agree.  A
delete removes the id from the 1 + k stores and from nothing else: a
battery skips pairs of ids its store no longer holds, so its rows grow
only by inserts (none in a KS selection, at most T_cap in a swap_round
solve), and an insert reaches only the batteries already built.  A battery
query computes each sketched point's distance from the sketched query once
for all its replicas and radii, and the index query walks the replicas'
hits in replica order with one table of inner products, so each is
computed once per point.  Configurations that ask for more than
MAX_STRUCTURES replicas in all are refused before any is built.

Build, update and query all need exclusive access: a query may build a
battery.  Queries draw all randomness from an explicit caller RNG.
"""

from __future__ import annotations

import math

import numpy as np

from .afn import DELTA, SCALE, AfnStructure, philox_keys
from .errors import ConfigError, DimensionMismatch, PreconditionViolation
from .pointstore import PointStore
from .sketch import SketchEnsemble, ensemble_size_default

__all__ = [
    "minip_transform_dataset",
    "minip_transform_query",
    "MinIpConfig",
    "check_window",
    "minip_window",
    "RobustMinIpIndex",
    "MAX_STRUCTURES",
]

#: most AFN replicas (ensemble size x replicas per sketch) one index may build
MAX_STRUCTURES = 10_000


def minip_transform_dataset(X, D_X: float = None):
    """Map dataset rows x to unit vectors (x/D_X, 0, sqrt(1 - |x|^2/D_X^2)).

    D_X defaults to the largest row norm.  Returns (augmented rows, D_X).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    norms = np.linalg.norm(X, axis=1)
    if D_X is None:
        D_X = float(norms.max())
    if not D_X > 0.0:  # False on NaN, so NaN is refused too
        raise PreconditionViolation("dataset diameter must be positive")
    if not np.all(norms <= D_X * (1 + 1e-12)):  # a NaN row fails too
        raise PreconditionViolation("a dataset point is NaN or exceeds the stated diameter D_X")
    n, d = X.shape
    out = np.empty((n, d + 2))
    np.divide(X, D_X, out=out[:, :d])
    out[:, d] = 0.0
    out[:, d + 1] = np.sqrt(np.maximum(1.0 - (norms / D_X) ** 2, 0.0))
    return out, D_X


def minip_transform_query(y, D_Y: float = None):
    """Map a query y to the unit vector (y/D_Y, sqrt(1 - |y|^2/D_Y^2), 0).

    With the default D_Y = |y| this just normalizes the query and pads.
    """
    y = np.asarray(y, dtype=float)
    norm = float(np.linalg.norm(y))
    if D_Y is None:
        D_Y = norm
    if not D_Y > 0.0:  # False on NaN, so NaN is refused too
        raise PreconditionViolation("query norm must be positive")
    if not norm <= D_Y * (1 + 1e-12):  # a NaN query fails too
        raise PreconditionViolation("query norm is NaN or exceeds the stated D_Y")
    tail = math.sqrt(max(1.0 - (norm / D_Y) ** 2, 0.0))
    return np.concatenate([y / D_Y, [tail], [0.0]]), D_Y


def check_window(c: float, tau: float) -> None:
    """Refuse a (c, tau) outside 0 < tau < c < 1 with the violated inequality."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau={tau} violates 0 < tau < 1")
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c={c} violates 0 < c < 1")
    if not tau < c:
        raise ConfigError(f"c={c} violates c > tau={tau}")


def minip_window(tau: float, eps: float) -> float:
    """The upper end of the admissible c-window: c must lie below it."""
    return 8.0 * tau / ((1.0 - eps) ** 2 * tau + 2.0 * eps + 7.0)


#: rows of each sketch, in SKETCH_BLOCKS count-sketch blocks: this shape keeps
#: the sketched dimension commensurate with small inputs and k*kappa under
#: MAX_STRUCTURES
SKETCH_DIM = 16
SKETCH_BLOCKS = 4


class MinIpConfig:
    """No fields: the sketch has one shape.  Kept because perfbench passes one."""

    @classmethod
    def desk(
        cls, sketch_dim: int = SKETCH_DIM, sketch_sparsity: int = SKETCH_BLOCKS
    ) -> "MinIpConfig":
        """MinIpConfig() for the index's one shape: perfbench/workloads.py still calls it."""
        if (sketch_dim, sketch_sparsity) != (SKETCH_DIM, SKETCH_BLOCKS):
            raise ConfigError(
                f"the Min-IP sketch is {SKETCH_DIM} rows in {SKETCH_BLOCKS} blocks, "
                f"not {sketch_dim} in {sketch_sparsity}"
            )
        return cls()


def _replica_count(n: int, s_dim: int, lambda_: float) -> int:
    raw = s_dim * math.log(n * s_dim / (lambda_ * DELTA))
    return max(1, math.ceil(SCALE * raw))


def _sample_count(b: int, k: int) -> int:
    raw = math.log(max(b, 2))
    return min(k, max(1, math.ceil(SCALE * raw)))


class RobustMinIpIndex:
    """Approximate Min-IP index hardened against adaptive queries.

    Parameters follow the (c, tau) contract: when some stored point has
    inner product <= tau with the query, a returned point z satisfies
    <x, z> <= tau/c + lambda_tilde; otherwise Fail (None) is allowed.
    """

    #: constant in front of the lambda_tilde additive-error formula
    LAMBDA_CONST = 2.0
    #: additive-error parameter lambda: sets the query grid and kappa
    LAMBDA = 0.05
    #: slack eps of the (c, tau) window
    EPS = 0.05

    def __init__(self, points, c: float, tau: float, seed: int):
        """Index `points`, one unit vector per row."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-9):  # NaN fails too
            raise PreconditionViolation("points must be unit vectors (see minip_transform_dataset)")
        self.tau = float(tau)
        self.c = float(c)
        self.seed = int(seed)
        self._validate_window()

        n, d = pts.shape
        self.alpha = min((n * d) ** -9.0, 1e-6)
        self.lambda_tilde = (
            self.LAMBDA_CONST
            * math.sqrt((self.c - self.tau) / (self.c * (1.0 - self.tau)))
            * (self.LAMBDA + self.alpha)
        )

        side = max(1, math.ceil(math.sqrt(d)))
        k = ensemble_size_default(d, n)
        self.kappa = _replica_count(n, SKETCH_DIM, self.LAMBDA)
        structures = k * self.kappa
        if structures > MAX_STRUCTURES:
            raise ConfigError(
                f"k={k} sketches x kappa={self.kappa} replicas = {structures} AFN "
                f"structures exceeds the limit of {MAX_STRUCTURES}"
            )
        self.ensemble = SketchEnsemble(
            side=side, b=SKETCH_DIM, k=k, master_seed=self.seed, s=SKETCH_BLOCKS
        )

        self._points = PointStore(pts)
        # sketched points, one store per ensemble member, each in one call
        self._stores = [PointStore(sketch.apply_flat(pts)) for sketch in self.ensemble.sketches]
        self._batteries = [None] * k  # built by battery(j) on first use

    def battery(self, j: int) -> AfnStructure:
        """The AFN battery of kappa replicas over sketch j's store, built on first use.

        Replica r is keyed by its path, the key of SeedSequence(seed + 1,
        spawn_key=(j, r, 0)), whatever was built before, and the battery is
        sized from the store's initial count, so a battery built after
        deletes and inserts is the one an eager build would hold.
        """
        battery = self._batteries[j]
        if battery is None:
            # the trailing 0, a removed copy layer's index, keeps the recorded outputs
            keys = philox_keys(self.seed + 1, j, np.arange(self.kappa), 0)
            battery = self._batteries[j] = AfnStructure(self._stores[j], self.cbar, keys)
        return battery

    def _validate_window(self):
        """Refuse a (c, tau) outside the window; inside it cbar^2 > 2(1-eps)^2/(1-2eps) > 2."""
        c, tau, eps = self.c, self.tau, self.EPS
        check_window(c, tau)
        hi = minip_window(tau, eps)
        if not c < hi:
            raise ConfigError(f"c={c} violates c < 8*tau/((1-eps)^2*tau + 2*eps + 7) = {hi}")
        self.cbar_sq = c * (1.0 - tau) * (1.0 - eps) ** 2 / (4.0 * (c - tau))
        self.cbar = math.sqrt(self.cbar_sq)

    @property
    def count(self) -> int:
        return len(self._points)

    def insert(self, p) -> int:
        """Store a unit vector; returns its id, larger than every earlier one."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self._points.dim,):
            raise DimensionMismatch(
                f"inserted points must have dim {self._points.dim}, not shape {p.shape}"
            )
        if not abs(np.linalg.norm(p) - 1.0) <= 1e-9:  # NaN fails too
            raise PreconditionViolation("inserted points must be unit vectors")
        pid = self._points.add(p)
        for sketch, store, battery in zip(self.ensemble.sketches, self._stores, self._batteries):
            store.add(sketch.apply_flat(p))  # issues pid too: the stores add in lockstep
            if battery is not None:  # a battery built later reads pid from the store
                battery.insert(pid)
        return pid

    def delete(self, pid) -> None:
        self._points.remove(pid)  # NotFound for an unknown id, before any change
        for store in self._stores:
            store.remove(pid)

    def _quantize(self, v: np.ndarray) -> np.ndarray:
        step = self.LAMBDA / SKETCH_DIM
        return np.round(v / step) * step

    def query(self, x, rng: np.random.Generator):
        """Best (pid, point, ip) meeting the additive Min-IP bound, or None."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self._points.dim,) or not abs(np.linalg.norm(x) - 1.0) <= 1e-9:
            raise DimensionMismatch(f"query must be a unit vector of dim {self._points.dim}")
        count = _sample_count(SKETCH_DIM, len(self.ensemble))
        sampled = self.ensemble.sample(count, rng)
        ips = {}  # pid -> <point, x>, for every hit of this query
        best = None
        for j in sampled:
            xq = self._quantize(self.ensemble.sketches[j].apply_flat(x))
            hits = self.battery(j).query(xq)
            if hits is None:
                continue
            for pid in hits.tolist():  # in replica order
                ip = ips.get(pid)
                if ip is None:
                    ip = ips[pid] = float(self._points[pid] @ x)
                if best is None or ip < best[1]:
                    best = (pid, ip)
        if best is None or best[1] > self.tau / self.c + self.lambda_tilde:
            return None
        pid, ip = best
        return pid, self._points[pid], ip

    def descriptor(self) -> dict:
        """Replayable parameters and seeds (contents excluded)."""
        return {
            "c": self.c,
            "tau": self.tau,
            "lambda": self.LAMBDA,
            "delta": DELTA,
            "eps": self.EPS,
            "seed": self.seed,
            "cbar_sq": self.cbar_sq,
            "kappa": self.kappa,
            "lambda_tilde": self.lambda_tilde,
            "ensemble": self.ensemble.descriptor(),
        }
