import numpy as np
import pytest

from sparsekit.linalg import VectorFamily, whiten


def random_symmetric(d, rng, scale=1.0):
    A = rng.standard_normal((d, d)) * scale
    return 0.5 * (A + A.T)


def random_isotropic_family(m, d, rng):
    """Whitened random rows: sum of outer products is exactly the identity."""
    raw = rng.standard_normal((m, d))
    return whiten(VectorFamily(raw))


def random_ks_family(d, N, rng):
    """m = d N vectors of norm exactly 1/sqrt(N) with Gram matrix I.

    N independent random orthonormal frames, each scaled by 1/sqrt(N):
    every frame contributes I/N to the Gram matrix and every row has the
    required norm.
    """
    blocks = []
    for _ in range(N):
        Q, R = np.linalg.qr(rng.standard_normal((d, d)))
        Q = Q * np.sign(np.diag(R))  # make the distribution sign-balanced
        blocks.append(Q / np.sqrt(N))
    return VectorFamily(np.vstack(blocks))


def exact_min_ip(Y, q):
    """Exhaustive argmin of <y_i, q>: (index, value), ties to the smallest index."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] == 0:
        raise ValueError("empty dataset")
    ips = Y @ np.asarray(q, dtype=float)
    idx = int(np.argmin(ips))
    return idx, float(ips[idx])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
