"""One-sided Kadison-Singer subset selection.

Greedy growth of a set S under a single upper barrier: at step j the score
of a candidate i against the scaled accumulator T_j = (1/beta) sum_{S} v v^T
is

    c_i = v_i^T (a_{j+1} I - T_j)^{-2} v_i / (Phi^{a_j} - Phi^{a_{j+1}})
          + v_i^T (a_{j+1} I - T_j)^{-1} v_i

and any i with c_i <= beta keeps the potential falling and the norm below
the barrier a_{j+1}.  The exact backend scans for the argmin; the
approximate backends ask the shared Min-IP backend (minip_backend) for a
candidate, verify the witness inequality directly, and fall back to the
scan (counted) whenever the backend fails or its answer does not verify.
Chosen indices are retired from the backend immediately, so they are never
proposed again.  Each step takes one eigendecomposition of T, after its
update; it serves the barrier check, the potential trace and the next
step's query matrix.  T is checked for symmetry once, after the last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BarrierCollapse, ConfigError, PreconditionViolation
from .linalg import EigenDecomposition, VectorFamily, WeightedSelection, eigendecompose
from .linalg import check_isotropy, check_symmetric
from .minip import MinIpConfig
from .minip_backend import MinIpBackend

__all__ = [
    "ks_barrier_sequence",
    "ks_query_matrix",
    "ks_select",
    "KsRunResult",
]

NORM_TOL = 1e-9


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
    M = eig.weighted(1.0 / (a_cur - vals))
    return M @ M / phi_gap + M


def _check_family(family: VectorFamily, N: float) -> None:
    norms = np.linalg.norm(family.vectors, axis=1)
    target = 1.0 / math.sqrt(N)
    if np.any(np.abs(norms - target) > NORM_TOL):
        raise PreconditionViolation(f"every vector must have norm 1/sqrt(N)={target}")
    if not check_isotropy(family):
        raise PreconditionViolation("family is not isotropic")
    if family.count != family.dim * N:
        raise PreconditionViolation(
            f"m={family.count} must equal d*N={family.dim * N}"
        )


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


def _greedy_loop(family, a, beta, backend=None, rng=None) -> KsRunResult:
    """Core loop over barriers `a`; `backend` (a MinIpBackend or None) proposes candidates.

    Proposed indices are verified against the witness inequality
    c_i <= beta; failures fall back to the exact argmin scan over the
    remaining set, so every accepted step preserves the barrier invariants.
    A scan counts as a fallback only when a backend was asked first.  The
    chosen index is retired from the backend before the next step.
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
    witness_tol = 1.0 + 1e-9
    for j in range(n):
        Qmat = ks_query_matrix(eig, a[j], a[j + 1])
        i_star = None if backend is None else backend.propose(Qmat, rng)
        if i_star is not None and remaining[i_star]:
            witness = float(V[i_star] @ Qmat @ V[i_star])
            if witness > beta * witness_tol:
                i_star = None
        else:
            i_star = None
        if i_star is None:
            if backend is not None:
                result.fallbacks += 1
            candidates = np.flatnonzero(remaining)
            rows = V[candidates]
            scores = np.einsum("ij,jk,ik->i", rows, Qmat, rows)
            i_star = int(candidates[int(np.argmin(scores))])
            witness = float(scores.min())
            if witness > beta * witness_tol:
                raise BarrierCollapse(
                    f"no index keeps the potential bounded at step {j}"
                )
        result.score_trace.append(witness)
        T = T + np.outer(V[i_star], V[i_star]) / beta
        chosen.append(i_star)
        remaining[i_star] = False
        if backend is not None:
            backend.retire(i_star)
        eig = eigendecompose(T)
        norm = eig.eigenvalues[-1]
        if norm >= a[j + 1]:
            raise BarrierCollapse(f"accumulator norm {norm} crossed barrier {a[j + 1]}")
        [phi] = eig.potentials(a[j + 1])
        result.potential_trace.append(phi)
    check_symmetric(T)
    selection = WeightedSelection(np.array(chosen), np.ones(len(chosen)))
    result.selection = selection
    result.final_norm = float(np.linalg.eigvalsh(selection.reconstruct(family))[-1])
    return result


def ks_select(
    family: VectorFamily,
    N: float,
    n: int,
    backend: str = "exact",
    c: float = None,
    tau: float = None,
    seed: int = 0,
    minip_config: MinIpConfig = None,
) -> KsRunResult:
    """Select n indices with the chosen backend.

    Output-norm guarantees: exact backend < a_n; aipe backend <= (1/c) a_n;
    afn backend <= (2/c) a_n.
    """
    a = ks_barrier_sequence(N, family.count, n)  # refuses bad N and n first
    _check_family(family, N)
    if backend == "exact":
        return _greedy_loop(family, a, 1.0)
    index = MinIpBackend(
        backend,
        family.vectors,
        range(family.count),
        c=c,
        tau=tau,
        seed=seed,
        minip_config=minip_config,
    )
    result = _greedy_loop(family, a, 1.0 / c, index, np.random.default_rng(seed))
    result.backend = backend
    return result
