import math

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


def paired_angle_family(d: int, angles: int, phase: float = 0.3) -> VectorFamily:
    """Coordinates (0,1), (2,3), ... each carry `angles` rows at evenly spaced angles.

    Over angles phase + pi k / K, sum cos^2 = sum sin^2 = K/2 and
    sum cos*sin = 0, so the family sums exactly to the identity.  Rows have
    two nonzeros, which sends sparsify_fast to the matrix tree.
    """
    theta = phase + np.pi * np.arange(angles) / angles
    rows = []
    for a in range(0, d, 2):
        block = np.zeros((angles, d))
        block[:, a] = np.cos(theta)
        block[:, a + 1] = np.sin(theta)
        rows.append(block * math.sqrt(2.0 / angles))
    return VectorFamily(np.vstack(rows))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
