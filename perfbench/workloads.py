"""The benchmark's workloads: seeded inputs, set-up, the two solver paths, and
the oracle that checks every output.

Each workload writes its inputs as Matrix Market files from the run seed
alone; the program only ever sees those files.  ``setup`` is what a user
pays before the first solve (parse, and whiten where the solver needs it).
Every solve is checked by ``check``, which rebuilds the selected sum with
the benchmark's own ``eigvalsh`` instead of trusting the solver's report.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse

from sparsekit import expdesign, io, kadison_singer, linalg, sparsifier
from sparsekit.aipe import AipeConfig
from sparsekit.minip import MinIpConfig

PATHS = ("accel", "exact")


@dataclass
class Instance:
    family: object  # the VectorFamily handed to both solver paths
    seed: int  # seed of the solvers' own randomness, fresh for every instance


@dataclass
class Verdict:
    ok: bool
    facts: dict = field(default_factory=dict)


def spectrum(rows: np.ndarray, weights=None) -> np.ndarray:
    """Ascending eigenvalues of sum_i w_i r_i r_i^T, computed independently."""
    scaled = rows if weights is None else rows * np.asarray(weights)[:, None]
    return np.linalg.eigvalsh(scaled.T @ rows)


def valid_indices(idx, m: int, size: int = None) -> bool:
    idx = np.asarray(idx)
    return bool(
        idx.ndim == 1
        and idx.size > 0
        and np.issubdtype(idx.dtype, np.integer)
        and (size is None or idx.size == size)
        and idx.min() >= 0
        and idx.max() < m
        and np.unique(idx).size == idx.size
    )


def _median_of(facts: list[dict], key: str) -> float:
    """Median of one fact over the run's solves; NaN when no output had it."""
    values = [f[key] for f in facts if key in f]
    return statistics.median(values) if values else math.nan


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Workload:
    name: str
    why: str
    count: int  # input files per run; instances cycle through them

    def generate(self, rng: np.random.Generator, filename: str) -> None:
        raise NotImplementedError

    def load(self, filename: str):
        raise NotImplementedError

    def setup(self, filenames) -> list:
        return [self.load(f) for f in filenames]

    def solve(self, inst: Instance, path: str):
        raise NotImplementedError

    def check(self, inst: Instance, path: str, out) -> Verdict:
        raise NotImplementedError

    def quality(self, accel_facts: list[dict]) -> float:
        """The accel_quality metric (lower is better) over the run's solves."""
        raise NotImplementedError

    def counters(self, accel_facts: list[dict], exact_facts: list[dict]) -> dict:
        """Per-layer counters read off solver results."""
        return {}

    def report(self, accel_facts: list[dict], exact_facts: list[dict]) -> dict:
        """Figures printed for a reader, beside the metrics."""
        return {}


class Sparsify(Workload):
    epsilon = 0.25

    def solve(self, inst, path):
        fn = sparsifier.sparsify_fast if path == "accel" else sparsifier.bss_reference
        return fn(inst.family, self.epsilon)

    def kappa_bound(self, d: int, path: str) -> float:
        """u_T / l_T: the barriers after T = ceil(d/eps^2) steps from u_0 = -l_0 = d/eps.

        The upper barrier steps by 1, the lower one by 1/(1+3 eps) on the fast
        path and 1/(1+2 eps) on the reference path, as sparsifier.py documents.
        The barrier loop keeps every eigenvalue of A strictly between them, so
        lambda_max / lambda_min of any correct output stays below this ratio,
        whatever factor the output is scaled by.
        """
        eps = self.epsilon
        T = math.ceil(d / eps**2)
        delta_l = 1.0 / (1.0 + (3.0 if path == "accel" else 2.0) * eps)
        return (d / eps + T) / (-d / eps + T * delta_l)

    def check(self, inst, path, out):
        """A valid selection whose spectrum keeps the barrier invariant.

        The check is scale-free.  Whether the output also meets the absolute
        window of verify_sparsifier is recorded as ``verify_passed`` and
        reported, not gated: at the commit that added this benchmark it fails
        on every input, because of the output scaling defect of ROADMAP item 1.
        """
        selection, _, trace = out
        V = inst.family.vectors
        idx, w = np.asarray(selection.indices), np.asarray(selection.weights, dtype=float)
        facts = {
            "iterations": len(trace.gap_sums) - 1,
            "fallbacks": trace.fallbacks,
            "tree_kind": trace.tree_kind,
        }
        if not (valid_indices(idx, len(V)) and w.shape == idx.shape):
            return Verdict(False, facts)
        if not np.all(np.isfinite(w) & (w > 0.0)):
            return Verdict(False, facts)
        vals = spectrum(V[idx], w)
        facts["kappa"] = float(vals[-1] / vals[0])
        facts["verify_passed"] = bool(
            sparsifier.verify_sparsifier(inst.family, selection, self.epsilon).passed
        )
        return Verdict(0.0 < vals[0] and facts["kappa"] < self.kappa_bound(V.shape[1], path), facts)

    def quality(self, accel_facts):
        return _median_of(accel_facts, "kappa")

    def counters(self, accel_facts, exact_facts):
        every = [f for f in accel_facts + exact_facts if "iterations" in f]
        return {
            "sparsifier.iterations": _mean(f["iterations"] for f in every),
            "sparsifier.fallbacks": _mean(f["fallbacks"] for f in every),
            "sparsifier.matrix_tree_frac": _mean(f["tree_kind"] == "matrix" for f in accel_facts),
        }

    def report(self, accel_facts, exact_facts):
        kinds = sorted({f["tree_kind"] for f in accel_facts})
        checked = [f for f in [*accel_facts, *exact_facts] if "verify_passed" in f]
        return {
            "sparsify.kappa": self.quality(accel_facts),
            "sparsify.verify_fail_frac": _mean(not f["verify_passed"] for f in checked),
            "tree_kinds": kinds,
        }


class SparsifyDense(Sparsify):
    name = "sparsify-dense"
    why = "tall dense rows, vector tree: the barrier loop's full O(m d^2) scan dominates both paths"
    count = 8
    m, d = 8192, 16

    def generate(self, rng, filename):
        scipy.io.mmwrite(filename, rng.standard_normal((self.m, self.d)), precision=17)

    def load(self, filename):
        return linalg.whiten(io.parse_matrix_file(filename))


class SparsifySparse(Sparsify):
    name = "sparsify-sparse"
    why = "2 nonzeros per row in coordinate format: the matrix tree, io's sparse path, eigh-heavy"
    count = 40
    d, angles = 32, 6  # m = angles * d / 2 = 3d

    def generate(self, rng, filename):
        """Each coordinate pair (a, b) carries `angles` rows at evenly spaced angles.

        Over evenly spaced angles sum cos^2 = sum sin^2 = angles/2 and
        sum cos*sin = 0, so the scaled family sums exactly to the identity.
        A phase strictly between 0 and 1 keeps both entries of every row nonzero.
        """
        d, K = self.d, self.angles
        perm = rng.permutation(d)
        phase = rng.uniform(0.1, 0.4)
        theta = math.pi * (np.arange(K) + phase) / K
        rows, cols, vals = [], [], []
        for p in range(d // 2):
            a, b = perm[2 * p], perm[2 * p + 1]
            for k in range(K):
                r = p * K + k
                rows += [r, r]
                cols += [a, b]
                vals += [math.cos(theta[k]), math.sin(theta[k])]
        order = rng.permutation(K * d // 2)  # row r moves to order[r]
        mat = scipy.sparse.coo_matrix(
            (np.array(vals) * math.sqrt(2.0 / K), (order[rows], cols)),
            shape=(K * d // 2, d),
        )
        scipy.io.mmwrite(filename, mat, precision=17)

    def load(self, filename):
        return io.parse_matrix_file(filename)


class KsAfn(Workload):
    name = "ks-afn"
    why = "Kadison-Singer selection on the AFN Min-IP backend: index build, sorted lists, deletes"
    count = 32
    d, N = 2, 8  # m = d N = 16, n = m / 2
    c, tau = 0.505, 0.5

    @property
    def n(self) -> int:
        return self.d * self.N // 2

    def a_n(self) -> float:
        root = math.sqrt(self.N)
        return 1.0 / root + (1.0 + 1.0 / (root - 1.0)) * self.n / (self.d * self.N)

    def generate(self, rng, filename):
        """N random orthonormal frames scaled by 1/sqrt(N): norms 1/sqrt(N), Gram I."""
        blocks = []
        for _ in range(self.N):
            Q, R = np.linalg.qr(rng.standard_normal((self.d, self.d)))
            blocks.append(Q * np.sign(np.diag(R)) / math.sqrt(self.N))
        scipy.io.mmwrite(filename, np.vstack(blocks), precision=17)

    def load(self, filename):
        return io.parse_matrix_file(filename)

    def solve(self, inst, path):
        if path == "exact":
            return kadison_singer.ks_select(inst.family, self.N, self.n)
        return kadison_singer.ks_select(
            inst.family,
            self.N,
            self.n,
            backend="afn",
            c=self.c,
            tau=self.tau,
            seed=inst.seed,
            minip_config=MinIpConfig.desk(sketch_dim=16, sketch_sparsity=4),
        )

    def check(self, inst, path, out):
        V = inst.family.vectors
        idx = np.asarray(out.selection.indices)
        facts = {"fallbacks": out.fallbacks, "steps": self.n}
        if not valid_indices(idx, len(V), self.n):
            return Verdict(False, facts)
        a_n = self.a_n()
        bound = a_n if path == "exact" else 2.0 / self.c * a_n
        norm = float(spectrum(V[idx])[-1])
        facts["norm_over_a_n"] = norm / a_n
        return Verdict(norm <= bound, facts)

    def quality(self, accel_facts):
        return _median_of(accel_facts, "norm_over_a_n")

    def counters(self, accel_facts, exact_facts):
        fallbacks = sum(f["fallbacks"] for f in accel_facts)
        steps = sum(f["steps"] for f in accel_facts)
        return {
            "kadison_singer.fallbacks": _mean(f["fallbacks"] for f in accel_facts),
            "kadison_singer.propose_accept_frac": 1.0 - fallbacks / steps if steps else 0.0,
        }

    def report(self, accel_facts, exact_facts):
        return {"ks.norm_over_a_n": self.quality(accel_facts)}


class ExpdesignAipe(Workload):
    name = "expdesign-aipe"
    why = "rare-direction design whose random start is singular, so AIPE-proposed swaps run"
    count = 32
    d, epsilon, gamma, c, tau = 4, 0.2, 4.0, 0.9, 0.5

    @property
    def n(self) -> int:
        return math.ceil(6 * self.d / self.epsilon**2 / (self.gamma - 1 - 2 / self.c))

    @property
    def m(self) -> int:
        return 4 * self.n

    def pi(self) -> np.ndarray:
        return np.full(self.m, self.n / self.m)

    def target(self) -> float:
        return 1.0 - self.gamma * self.epsilon

    def generate(self, rng, filename):
        """Gaussian rows on the first d/2 coordinates; each other coordinate is
        carried by one row only, so a random n-subset almost surely misses one."""
        half = self.d // 2
        X = rng.standard_normal((self.m, self.d))
        X[:, half:] = 0.0
        rare = rng.choice(self.m, size=self.d - half, replace=False)
        X[rare, np.arange(half, self.d)] = 1.0
        scipy.io.mmwrite(filename, X, precision=17)

    def load(self, filename):
        return linalg.whiten(io.parse_matrix_file(filename), self.pi())

    def solve(self, inst, path):
        args = (inst.family, self.pi(), self.n, self.epsilon)
        if path == "exact":
            return expdesign.swap_round(*args, gamma=self.gamma, c=self.c, seed=inst.seed)
        return expdesign.swap_round(
            *args,
            gamma=self.gamma,
            c=self.c,
            tau=self.tau,
            backend="aipe",
            seed=inst.seed,
            aipe_config=AipeConfig.desk(),
        )

    def check(self, inst, path, out):
        X = inst.family.vectors
        idx = np.asarray(out.selection.indices)
        facts = {
            "swaps": out.swaps,
            "fallbacks": out.fallbacks,
            "start_lambda_min": float(out.lambda_trace[0]),
        }
        if not valid_indices(idx, len(X), self.n):
            return Verdict(False, facts)
        lam_min = float(spectrum(X[idx])[0])
        facts["lambda_min"] = lam_min
        return Verdict(lam_min > self.target(), facts)

    def quality(self, accel_facts):
        return self.target() / _median_of(accel_facts, "lambda_min")

    def counters(self, accel_facts, exact_facts):
        swaps = sum(f["swaps"] for f in accel_facts)
        fallbacks = sum(f["fallbacks"] for f in accel_facts)
        return {
            "expdesign.swaps": _mean(f["swaps"] for f in accel_facts + exact_facts),
            "expdesign.fallbacks": _mean(f["fallbacks"] for f in accel_facts),
            "expdesign.propose_accept_frac": 1.0 - fallbacks / swaps if swaps else 0.0,
            "expdesign.start_lambda_min": statistics.median(
                f["start_lambda_min"] for f in accel_facts
            ),
        }

    def report(self, accel_facts, exact_facts):
        return {"expdesign.lambda_min": _median_of(accel_facts, "lambda_min")}


WORKLOADS = {
    w.name: w for w in (SparsifyDense(), SparsifySparse(), KsAfn(), ExpdesignAipe())
}
