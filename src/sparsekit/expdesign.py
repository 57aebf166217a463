"""Swap rounding for experimental design with Min-IP-accelerated removal.

Maintains a size-n set S and the normalized inverse-square matrix
A_t = (c_t I + alpha sum_{i in S} x x^T)^{-2} with tr[A_t] = 1.  Each
iteration removes the member with the smallest B^- score (proposed by the
shared Min-IP backend of minip_backend and verified, or found by an
eligible-filtered scan) and inserts the non-member with the
largest B^+ score (always by linear scan: the target values are ~1/n, too
small for approximate search to resolve).  The loop exits as soon as
lambda_min of the selected Gram matrix clears 1 - gamma eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    IterationExhausted,
    NoEligibleRemoval,
    PreconditionViolation,
)
from .linalg import VectorFamily, WeightedSelection, check_isotropy, check_symmetric, eigendecompose
from .minip_backend import MinIpBackend

__all__ = [
    "find_ct",
    "swap_matrices",
    "swap_query_matrix",
    "swap_round",
    "SwapRunResult",
]

# gamma=3 would need c > 2/(gamma-1) = 1, which 0 < c < 1 forbids
DEFAULT_GAMMA = 4.0
DEFAULT_C = 0.9


def find_ct(eigenvalues: np.ndarray, alpha: float) -> float:
    """The constant c with sum_i (c + alpha lambda_i)^{-2} = 1.

    `eigenvalues` are the ascending eigenvalues lambda_i of Z.  Monotone
    bisection on the scalar map; each evaluation is O(d).  The map decreases
    from +inf to 0 on (-alpha lambda_min, inf), so the root exists and is
    unique.  Stops once the trace is within 1e-10 of 1.
    """
    vals = np.asarray(eigenvalues, dtype=float)
    scaled = alpha * vals
    d = len(vals)

    def trace_at(c: float) -> float:
        return float(np.sum((c + scaled) ** -2.0))

    hi = math.sqrt(d) - scaled[0]  # trace_at(hi) = sum (sqrt(d) + a(l_i - l_min))^-2 <= 1
    lo_base = -scaled[0]
    step = max(abs(hi - lo_base), 1.0)
    lo = lo_base + step
    while trace_at(lo) < 1.0:
        step /= 2.0
        lo = lo_base + step
        if step < 1e-300:
            raise ArithmeticError("bisection bracket collapsed")
    hi = max(hi, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trace_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if abs(trace_at(0.5 * (lo + hi)) - 1.0) <= 1e-10:
            break
    return 0.5 * (lo + hi)


def _b_minus(A: np.ndarray, A_half: np.ndarray, x: np.ndarray, alpha: float, beta: float) -> float:
    """B^-(x) for one vector; inf, so never a removal, when its denominator is <= 0."""
    num = float(x @ A @ x)
    half = float(x @ A_half @ x)
    denom_minus = beta - 2.0 * alpha * half
    if denom_minus <= 0.0:
        return math.inf
    return num / denom_minus


def swap_matrices(Z: np.ndarray, alpha: float):
    """(A_half, A) of one swap iteration from the selected Gram matrix Z.

    A_half = (c_t I + alpha Z)^{-1} and A = A_half^2, with c_t = find_ct(.)
    chosen so that tr[A] = 1; all three come from one eigendecomposition of Z.
    """
    eig = eigendecompose(Z)
    c_t = find_ct(eig.eigenvalues, alpha)
    inv_gaps = 1.0 / (c_t + alpha * eig.eigenvalues)
    return eig.weighted(inv_gaps), eig.weighted(inv_gaps**2)


def swap_query_matrix(A: np.ndarray, A_half: np.ndarray, n: int, epsilon: float, alpha: float) -> np.ndarray:
    """Matrix q with <q, x x^T> <= beta  <=>  B^-(x) <= (1-eps)/(beta n) for eligible x."""
    return A / ((1.0 - epsilon) / n) + 2.0 * alpha * A_half


@dataclass
class SwapRunResult:
    selection: WeightedSelection
    lambda_min: float
    swaps: int
    lambda_trace: list = field(default_factory=list)
    trace_minus: list = field(default_factory=list)  # B^-(x_{i_t}) per executed swap
    trace_plus: list = field(default_factory=list)  # B^+(x_{j_t}) per executed swap
    trace_norm: list = field(default_factory=list)  # tr[A_t] per iteration
    fallbacks: int = 0
    backend: str = "exact"
    initial_set: np.ndarray = None

    def as_dict(self) -> dict:
        return {
            "selection": self.selection.as_dict(),
            "lambda_min": self.lambda_min,
            "swaps": self.swaps,
            "lambda_trace": self.lambda_trace,
            "fallbacks": self.fallbacks,
            "backend": self.backend,
        }


def _score_terms(rows, A, A_half):
    """(x^T A x, x^T A_half x) for every row x: the terms of B^+ and B^-."""
    nums = np.einsum("ij,jk,ik->i", rows, A, rows)
    halves = np.einsum("ij,jk,ik->i", rows, A_half, rows)
    return nums, halves


def _removal_scan(rows, A, A_half, alpha, beta):
    """Index (into rows) minimizing B^- among eligible members."""
    nums, halves = _score_terms(rows, A, A_half)
    denoms = beta - 2.0 * alpha * halves
    eligible = denoms > 0.0
    if not np.any(eligible):
        raise NoEligibleRemoval("no member has a positive B^- denominator")
    scores = np.full(len(rows), np.inf)
    scores[eligible] = nums[eligible] / denoms[eligible]
    return int(np.argmin(scores)), scores


def swap_round(
    family: VectorFamily,
    pi,
    n: int,
    epsilon: float,
    gamma: float = DEFAULT_GAMMA,
    c: float = DEFAULT_C,
    tau: float = None,
    backend: str = "exact",
    seed: int = 0,
    aipe_config=None,
) -> SwapRunResult:
    """Round the fractional design pi to an n-subset with lambda_min >= 1 - gamma eps.

    Expects the family already whitened: sum_i pi_i x_i x_i^T = I (use
    linalg.whiten first; the CLI exposes --whiten).  aipe_config is unused:
    the AIPE pools read afn.SCALE, and only perfbench/workloads.py passes one.
    """
    X = family.vectors
    m, d = X.shape
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (m,):
        raise PreconditionViolation("pi must assign one weight to every vector")
    if not np.all((pi >= 0.0) & (pi <= 1.0)):  # False on NaN, so NaN is refused too
        raise PreconditionViolation("pi must lie in [0, 1]^m")
    if pi.sum() > n + 1e-9:
        raise PreconditionViolation(f"||pi||_1={pi.sum()} violates ||pi||_1 <= n={n}")
    if not check_isotropy(family, pi=pi):
        raise PreconditionViolation(
            "sum_i pi_i x_i x_i^T != I; whiten the family first"
        )
    if gamma < 3.0:
        raise ConfigError(f"gamma={gamma} violates gamma >= 3")
    if not 0.0 < epsilon <= 1.0 / gamma:
        raise ConfigError(f"epsilon={epsilon} violates 0 < eps <= 1/gamma")
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c={c} violates 0 < c < 1")
    beta = 1.0 / c
    if gamma - 1.0 - 2.0 / c <= 0.0:
        raise ConfigError(f"c={c} violates c > 2/(gamma-1) = {2.0 / (gamma - 1.0)}")
    n_floor = 6.0 * d / epsilon**2 / (gamma - 1.0 - 2.0 / c)
    if n < n_floor:
        raise ConfigError(f"n={n} violates n >= 6d/eps^2/(gamma-1-2/c) = {n_floor}")
    if n > m:
        raise ConfigError(f"n={n} exceeds m={m}")

    alpha = math.sqrt(d) * beta / epsilon
    T_cap = math.ceil(n / (c * epsilon))
    rng = np.random.default_rng(seed)
    members = list(rng.choice(m, size=n, replace=False))
    result = SwapRunResult(
        selection=None,
        lambda_min=math.nan,
        swaps=0,
        backend=backend,
        initial_set=np.array(sorted(members)),
    )

    index = None
    if backend != "exact":
        index = MinIpBackend(backend, X, members, c=c, tau=tau, seed=seed)

    member_mask = np.zeros(m, dtype=bool)
    member_mask[members] = True
    removal_bound = (1.0 - epsilon) / (beta * n)

    def current_lambda_min():
        # an eigensolve of its own: taking lambda_min from swap_matrices' eigh
        # of the same Z would change the last bits of lambda_trace
        Z = X[member_mask].T @ X[member_mask]
        return float(np.linalg.eigvalsh(Z)[0]), Z

    lam_min, Z = current_lambda_min()
    result.lambda_trace.append(lam_min)
    t = 1
    while t <= T_cap and lam_min <= 1.0 - gamma * epsilon:
        A_half, A = swap_matrices(Z, alpha)
        result.trace_norm.append(float(np.trace(A)))

        i_t = None
        if index is not None:
            cand = index.propose(swap_query_matrix(A, A_half, n, epsilon, alpha), rng)
            if cand is not None and member_mask[cand]:
                bm = _b_minus(A, A_half, X[cand], alpha, beta)
                if bm <= removal_bound * (1.0 + 1e-9):
                    i_t = cand
                    b_minus_val = bm
            if i_t is None:
                result.fallbacks += 1
        if i_t is None:
            member_list = np.flatnonzero(member_mask)
            local, scores = _removal_scan(X[member_list], A, A_half, alpha, beta)
            i_t = int(member_list[local])
            b_minus_val = float(scores[local])

        comp_list = np.flatnonzero(~member_mask)
        nums, halves = _score_terms(X[comp_list], A, A_half)
        plus_scores = nums / (beta + 2.0 * alpha * halves)
        j_t = int(comp_list[int(np.argmax(plus_scores))])
        b_plus_val = float(plus_scores.max())

        member_mask[i_t] = False
        member_mask[j_t] = True
        result.trace_minus.append(b_minus_val)
        result.trace_plus.append(b_plus_val)
        result.swaps += 1
        if index is not None:
            index.retire(i_t)
            index.insert(j_t)

        lam_min, Z = current_lambda_min()
        result.lambda_trace.append(lam_min)
        t += 1

    check_symmetric(Z)
    members_final = np.flatnonzero(member_mask)
    result.selection = WeightedSelection(members_final, np.ones(len(members_final)))
    result.lambda_min = lam_min
    if lam_min <= 1.0 - gamma * epsilon:
        raise IterationExhausted(
            f"hit the swap cap T={T_cap} at lambda_min={lam_min}",
            lambda_min=lam_min,
            result=result,
        )
    return result
