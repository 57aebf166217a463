"""One-sided Kadison-Singer subset selection.

Greedy growth of a set S under a single upper barrier: at step j the score
of a candidate i against the scaled accumulator T_j = (1/beta) sum_{S} v v^T
is

    c_i = v_i^T (a_{j+1} I - T_j)^{-2} v_i / (Phi^{a_j} - Phi^{a_{j+1}})
          + v_i^T (a_{j+1} I - T_j)^{-1} v_i

and any i with c_i <= beta keeps the potential falling and the norm below
the barrier a_{j+1}.  The exact backend scores every row with one
linalg.quadratic_forms pass, masks the chosen ones to inf, and takes the
lowest index within a relative TIE_TOL of the least score: on stacked
orthonormal frames all scores tie at step 0 and after each full frame.
On aipe and afn the shared Min-IP backend (minip_backend) proposes first
(linalg.propose_or_scan), and a chosen row is retired from it at once.
Each step takes one eigendecomposition of T, after its update; it serves
the barrier check, the potential trace and the next step's query matrix.
T is checked for symmetry once, after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierCollapse, ConfigError, IsotropyViolation, PreconditionViolation
from .linalg import EigenDecomposition, VectorFamily, WeightedSelection, eigendecompose
from .linalg import check_isotropy, check_symmetric, propose_or_scan, quadratic_forms
from .minip_backend import MinIpBackend

__all__ = [
    "ks_barrier_sequence",
    "ks_query_matrix",
    "ks_select",
    "KsRunResult",
]

NORM_TOL = 1e-9
TIE_TOL = 1e-12  # relative distance from the least score within which rows tie


def ks_barrier_sequence(N: float, m: int, n: int) -> np.ndarray:
    """a_i = 1/sqrt(N) + (1 + 1/(sqrt(N)-1)) i/m for i = 0..n."""
    if not N >= 2:  # False on NaN, so NaN is refused too
        raise ConfigError(f"N={N} violates N >= 2 (1/(sqrt(N)-1) must be finite)")
    if not 0 <= n < m:
        raise ConfigError(f"n={n} violates 0 <= n < m={m}")
    i = np.arange(n + 1, dtype=float)
    root = math.sqrt(N)
    return 1.0 / root + (1.0 + 1.0 / (root - 1.0)) * i / m


def ks_query_matrix(eig: EigenDecomposition, a_prev: float, a_cur: float) -> np.ndarray:
    """The d x d matrix whose inner product with v v^T is the score against T = eig."""
    vals = eig.eigenvalues
    if a_cur <= vals[-1]:
        raise BarrierCollapse(f"barrier a={a_cur} does not clear ||T||={vals[-1]}")
    phi_prev, phi_cur = eig.potentials(a_prev, a_cur)
    phi_gap = phi_prev - phi_cur
    if phi_gap <= 0.0:
        raise BarrierCollapse("potential gap is nonpositive")
    gaps = a_cur - vals
    return eig.weighted(gaps**-2.0 / phi_gap + gaps**-1.0)


def _check_family(family: VectorFamily, N: float) -> None:
    with np.errstate(over="ignore"):  # an overflowed norm is inf, refused just below
        norms = np.linalg.norm(family.vectors, axis=1)
    target = 1.0 / math.sqrt(N)
    if np.any(np.abs(norms - target) > NORM_TOL):
        raise PreconditionViolation(f"every vector must have norm 1/sqrt(N)={target}")
    if not check_isotropy(family):
        raise IsotropyViolation("family is not isotropic")
    # no m = dN test: the two checks give m/N = sum |v|^2 = trace I = d up to rounding


@dataclass
class KsRunResult:
    selection: WeightedSelection
    final_norm: float
    barrier_sequence: np.ndarray
    potential_trace: list = field(default_factory=list)
    score_trace: list = field(default_factory=list)
    fallbacks: int = 0
    backend: str = "exact"
    beta: float = 1.0

    def as_dict(self) -> dict:
        return {
            "selection": self.selection.as_dict(),
            "final_norm": self.final_norm,
            "barrier_sequence": self.barrier_sequence.tolist(),
            "potential_trace": self.potential_trace,
            "score_trace": self.score_trace,
            "fallbacks": self.fallbacks,
            "backend": self.backend,
            "beta": self.beta,
        }


def _greedy_loop(family, a, beta, propose=None, retire=None) -> KsRunResult:
    """Core loop over barriers `a`; each step picks through linalg.propose_or_scan.

    `propose(Q)` answers a remaining row and `retire(i)` drops a chosen one;
    the exact backend passes neither.  A proposed row that is no longer
    remaining is refused, a counted fallback.  A pick, proposed or the
    scan's tied argmin, must pass the witness test c_i = v_i^T Q v_i <= beta;
    a scanned pick that fails it raises BarrierCollapse.
    """
    d = family.dim
    V = family.vectors
    n = len(a) - 1
    T = np.zeros((d, d))
    eig = eigendecompose(T)
    remaining = np.ones(family.count, dtype=bool)
    chosen: list[int] = []
    result = KsRunResult(selection=None, final_norm=math.nan, barrier_sequence=a, beta=beta)
    result.potential_trace.append(d / a[0])  # Phi^{a_0}(0)
    bound = beta * (1.0 + 1e-9)  # the witness test c_i <= beta, with room for roundoff

    def verify(i, Q):
        if not remaining[i]:  # a proposer's stale row: a counted fallback
            return math.inf, False
        witness = float(V[i] @ Q @ V[i])
        return witness, witness <= bound

    def scan(Q):
        scores = np.where(remaining, quadratic_forms(V, Q), np.inf)
        least = scores.min()
        k = int((scores <= least + TIE_TOL * abs(least)).argmax())  # the first tie
        return k, float(scores[k])

    for j in range(n):
        Qmat = ks_query_matrix(eig, a[j], a[j + 1])
        i_star, witness, fell_back = propose_or_scan(propose, verify, scan, Qmat)
        if witness > bound:  # only a scanned least score can fail here
            raise BarrierCollapse(f"no index keeps the potential bounded at step {j}")
        result.fallbacks += fell_back
        result.score_trace.append(witness)
        T = T + V[i_star][:, None] * V[i_star] / beta  # np.outer computes this same product
        chosen.append(i_star)
        remaining[i_star] = False
        if retire is not None:
            retire(i_star)
        eig = eigendecompose(T)
        norm = eig.eigenvalues[-1]
        if norm >= a[j + 1]:
            raise BarrierCollapse(f"accumulator norm {norm} crossed barrier {a[j + 1]}")
        [phi] = eig.potentials(a[j + 1])
        result.potential_trace.append(phi)
    check_symmetric(T)
    result.selection = WeightedSelection(np.array(chosen), np.ones(len(chosen)))
    result.final_norm = float(np.linalg.eigvalsh(result.selection.reconstruct(family))[-1])
    return result


def ks_select(
    family: VectorFamily,
    N: float,
    n: int,
    backend: str = "exact",
    c: float = None,
    tau: float = None,
    seed: int = 0,
    minip_config=None,
) -> KsRunResult:
    """Select n indices with the chosen backend.

    Output-norm guarantee, the same for every backend: the final norm is
    below beta a_n, with beta = 1 on the exact backend and 1/c on aipe and
    afn, since every accepted step, proposed or scanned, passes the witness
    test c_i <= beta and the barrier check.  minip_config is unused: the
    Min-IP sketch has one shape, and only perfbench/workloads.py passes one.
    """
    if seed < 0:
        raise ConfigError(f"seed={seed} violates seed >= 0")
    a = ks_barrier_sequence(N, family.count, n)  # refuses bad N and n first
    _check_family(family, N)
    if backend == "exact":
        return _greedy_loop(family, a, 1.0)
    index = MinIpBackend(backend, family.vectors, range(family.count), c=c, tau=tau, seed=seed)
    rng = np.random.default_rng(seed)
    result = _greedy_loop(family, a, 1.0 / c, lambda Q: index.propose(Q, rng), index.retire)
    result.backend = backend
    return result
