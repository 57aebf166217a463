"""Swap rounding for experimental design with Min-IP-accelerated removal.

Maintains a size-n set S, its Gram matrix Z = sum_{i in S} x x^T and
A_t = (c_t I + alpha Z)^{-2} with tr[A_t] = 1.  Each iteration removes a
member by linalg.propose_or_scan (a proposal of the shared Min-IP backend,
minip_backend, else the eligible member with the least B^- score) and
inserts the non-member with the largest B^+ score (always by linear scan:
the target values are ~1/n, too small for approximate search to resolve).
Each swap scores all m rows once (_row_forms) and both scans select from
those scores by the member mask (np.where), with no row gather, ties going
to the lowest row.  Z is gathered once and updated by rank two per swap.
One eigendecomposition of Z per iteration gives the exit test, lambda_min
clearing 1 - gamma eps by CLEAR_TOL * lambda_max, and A_t, with c_t found
by Newton's method in O(d) per step."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    IsotropyViolation,
    IterationExhausted,
    NoEligibleRemoval,
    PreconditionViolation,
)
from .linalg import EigenDecomposition, VectorFamily, WeightedSelection, check_isotropy
from .linalg import check_symmetric, eigendecompose, propose_or_scan, quadratic_forms
from .minip_backend import MinIpBackend

__all__ = [
    "clears",
    "find_ct",
    "swap_matrices",
    "swap_query_matrix",
    "swap_round",
    "SwapRunResult",
]

# gamma=3 would need c > 2/(gamma-1) = 1, which 0 < c < 1 forbids
DEFAULT_GAMMA = 4.0
DEFAULT_C = 0.9
#: lambda_min clears its target only by more than CLEAR_TOL * lambda_max: at
#: eps = 1/gamma the target is 0.0, which a singular Z's roundoff can exceed
CLEAR_TOL = 1e-12


def clears(lambda_min: float, lambda_max: float, target: float) -> bool:
    """True iff lambda_min exceeds target by more than CLEAR_TOL * lambda_max."""
    return lambda_min > target + CLEAR_TOL * lambda_max


def find_ct(eigenvalues: np.ndarray, alpha: float) -> float:
    """The constant c with sum_i (c + alpha lambda_i)^{-2} = 1, by Newton's method.

    `eigenvalues` are the ascending eigenvalues lambda_i of Z.  The map
    decreases from +inf to 0 on (-alpha lambda_min, inf) and is convex, so
    the root exists, is unique, and Newton's steps from any point left of it
    rise toward it without passing it.  The start c = 1 - alpha lambda_min
    is such a point: its least term alone is 1.  Each step is O(d) Python
    float arithmetic, cheaper than numpy calls at the solvers' d.  Stops once
    the trace is within 1e-10 of 1, when a step no longer moves c (far from
    0 the float grid cannot resolve 1e-10), or after 200 steps.
    """
    scaled = (alpha * np.asarray(eigenvalues, dtype=float)).tolist()
    c = 1.0 - scaled[0]
    for _ in range(200):
        value = slope = 0.0  # the trace and minus half its derivative at c
        for s in scaled:
            inv = 1.0 / (c + s)
            value += inv * inv
            slope += inv * inv * inv
        if abs(value - 1.0) <= 1e-10:
            break
        c_next = c + (value - 1.0) / (2.0 * slope)
        if c_next == c:
            break
        c = c_next
    return c


def _b_minus(A: np.ndarray, A_half: np.ndarray, x: np.ndarray, alpha: float, beta: float) -> float:
    """B^-(x) for one vector; inf, so never a removal, when its denominator is <= 0."""
    denom_minus = beta - 2.0 * alpha * float(x @ A_half @ x)
    return float(x @ A @ x) / denom_minus if denom_minus > 0.0 else math.inf


def swap_matrices(eig: EigenDecomposition, alpha: float):
    """(A_half, A) of one swap iteration from eig = eigendecompose(Z), Z the selected Gram matrix.

    A_half = (c_t I + alpha Z)^{-1} and A = A_half^2, with c_t = find_ct(.) so that tr[A] = 1.
    """
    c_t = find_ct(eig.eigenvalues, alpha)
    inv_gaps = 1.0 / (c_t + alpha * eig.eigenvalues)
    return eig.weighted(inv_gaps), eig.weighted(inv_gaps**2)


def swap_query_matrix(A: np.ndarray, A_half: np.ndarray, n: int, epsilon: float, alpha: float) -> np.ndarray:
    """Matrix q with <q, x x^T> <= beta <=> B^-(x) <= (1-eps)/n, for x with B^- denominator > 0."""
    return A / ((1.0 - epsilon) / n) + 2.0 * alpha * A_half


@dataclass
class SwapRunResult:
    selection: WeightedSelection
    lambda_min: float
    swaps: int
    lambda_max: float = math.nan
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
            "lambda_max": self.lambda_max,
            "swaps": self.swaps,
            "lambda_trace": self.lambda_trace,
            "fallbacks": self.fallbacks,
            "backend": self.backend,
        }


def _row_forms(X, A, A_half):
    """(x^T A x, x^T A_half x) for every row x of X: a swap's one pass over the rows."""
    return quadratic_forms(X, A), quadratic_forms(X, A_half)


def _removal_scan(inside, nums, halfs, alpha, beta):
    """(row, B^-) of the lowest row inside the set with the least B^- among eligible ones."""
    denoms = beta - 2.0 * alpha * halfs
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero denominator is masked
        scores = np.where(inside & (denoms > 0.0), nums / denoms, np.inf)
    k = int(scores.argmin())
    if scores[k] == np.inf:
        raise NoEligibleRemoval("no member has a positive B^- denominator and a finite B^-")
    return k, float(scores[k])


def _addition_scan(outside, nums, halfs, alpha, beta):
    """(row, B^+) of the lowest row outside the set with the largest B^+ score."""
    scores = np.where(outside, nums / (beta + 2.0 * alpha * halfs), -np.inf)
    k = int(scores.argmax())
    return k, float(scores[k])


def _swap_gram(Z, x_out, x_in):
    """Z - x_out x_out^T + x_in x_in^T: elementwise products, so symmetric Z stays so."""
    return Z - x_out[:, None] * x_out + x_in[:, None] * x_in


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
    """Round the fractional design pi to an n-subset whose lambda_min clears 1 - gamma eps.

    Expects the family already whitened: sum_i pi_i x_i x_i^T = I (use
    linalg.whiten first; the CLI exposes --whiten).  aipe_config is unused:
    the AIPE pools read afn.SCALE, and only perfbench/workloads.py passes one.
    """
    if seed < 0:
        raise ConfigError(f"seed={seed} violates seed >= 0")
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
        raise IsotropyViolation("sum_i pi_i x_i x_i^T != I; whiten the family first")
    if not gamma >= 3.0:  # False on NaN, so NaN is refused too
        raise ConfigError(f"gamma={gamma} violates gamma >= 3")
    if not 0.0 < epsilon <= 1.0 / gamma:
        raise ConfigError(f"epsilon={epsilon} violates 0 < eps <= 1/gamma")
    if not 0.0 < c < 1.0:
        raise ConfigError(f"c={c} violates 0 < c < 1")
    beta = 1.0 / c
    if gamma - 1.0 - 2.0 / c <= 0.0:
        raise ConfigError(f"c={c} violates c > 2/(gamma-1) = {2.0 / (gamma - 1.0)}")
    # an underflowed eps^2 reads n_floor = inf, so the check below refuses it
    n_floor = 6.0 * d / epsilon**2 / (gamma - 1.0 - 2.0 / c) if epsilon**2 > 0.0 else math.inf
    if n < n_floor:
        raise ConfigError(f"n={n} violates n >= 6d/eps^2/(gamma-1-2/c) = {n_floor}")
    if n > m:
        raise ConfigError(f"n={n} exceeds m={m}")

    alpha = math.sqrt(d) * beta / epsilon
    T_cap = math.ceil(n / (c * epsilon))
    rng = np.random.default_rng(seed)
    members = rng.choice(m, size=n, replace=False)
    result = SwapRunResult(
        selection=None, lambda_min=math.nan, swaps=0, backend=backend, initial_set=np.sort(members)
    )

    member_mask = np.zeros(m, dtype=bool)
    member_mask[members] = True
    removal_bound = (1.0 - epsilon) / (beta * n)
    propose = index = None
    if backend != "exact":
        index = MinIpBackend(backend, X, members, c=c, tau=tau, seed=seed)

        def propose(A, A_half):  # the backend stores exactly the members
            return index.propose(swap_query_matrix(A, A_half, n, epsilon, alpha), rng)

    def verify(i, A, A_half):
        if not member_mask[i]:  # a proposer's stale row: a counted fallback
            return math.inf, False
        bm = _b_minus(A, A_half, X[i], alpha, beta)
        return bm, bm <= removal_bound * (1.0 + 1e-9)

    def scan(A, A_half):  # reads this iteration's row pass
        return _removal_scan(member_mask, nums, halfs, alpha, beta)

    target = 1.0 - gamma * epsilon
    rows = X[member_mask]
    Z = rows.T @ rows.copy()  # two views of one buffer would send numpy to SYRK, with other bits
    while True:
        eig = eigendecompose(Z)
        lam_min, lam_max = float(eig.eigenvalues[0]), float(eig.eigenvalues[-1])
        result.lambda_trace.append(lam_min)
        cleared = clears(lam_min, lam_max, target)
        if result.swaps >= T_cap or cleared:
            break
        A_half, A = swap_matrices(eig, alpha)
        result.trace_norm.append(float(np.trace(A)))
        nums, halfs = _row_forms(X, A, A_half)
        i_t, b_minus_val, fell_back = propose_or_scan(propose, verify, scan, A, A_half)
        result.fallbacks += fell_back
        j_t, b_plus_val = _addition_scan(~member_mask, nums, halfs, alpha, beta)
        member_mask[i_t] = False
        member_mask[j_t] = True
        Z = _swap_gram(Z, X[i_t], X[j_t])
        result.trace_minus.append(b_minus_val)
        result.trace_plus.append(b_plus_val)
        result.swaps += 1
        if index is not None:
            index.retire(i_t)
            index.insert(j_t)

    check_symmetric(Z)
    members_final = np.flatnonzero(member_mask)
    result.selection = WeightedSelection(members_final, np.ones(len(members_final)))
    result.lambda_min, result.lambda_max = lam_min, lam_max
    if not cleared:
        raise IterationExhausted(
            f"hit the swap cap T={T_cap} at lambda_min={lam_min}", lambda_min=lam_min, result=result
        )
    return result
