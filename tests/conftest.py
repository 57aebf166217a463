import math

import numpy as np
import pytest

from sparsekit.linalg import VectorFamily, whiten


def path_key(seed: int, member: int = 0, replica: int = 0) -> int:
    """The 128-bit Philox key of the stream (member, replica) under `seed`,
    written out from the layout rather than read from afn.philox_keys: the
    first uint64 word of SeedSequence(seed) low, member * 2**32 + replica high."""
    head = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    return head + ((int(member) << 32 | int(replica)) << 64)


def random_symmetric(d, rng, scale=1.0):
    A = rng.standard_normal((d, d)) * scale
    return 0.5 * (A + A.T)


def random_isotropic_family(m, d, rng):
    """Whitened random rows: sum of outer products is exactly the identity."""
    raw = rng.standard_normal((m, d))
    return whiten(VectorFamily(raw))


def count_full_passes(monkeypatch, module, m) -> list:
    """Wrap `module`'s quadratic_forms; the list returned grows by one entry
    at each call over all m rows, a full pass of the exact scan."""
    full = []
    original = module.quadratic_forms

    def counting(V, M):
        if len(V) == m:
            full.append(m)
        return original(V, M)

    monkeypatch.setattr(module, "quadratic_forms", counting)
    return full


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


def harmonic_frame(m, d):
    """The real harmonic frame of m rows in R^d, d odd: row k is
    sqrt(2/m) (1/sqrt(2), cos(2 pi j k/m), sin(2 pi j k/m) for j = 1..(d-1)/2).

    For m > d - 1 every row has norm sqrt(d/m) and the rows sum to the
    identity, so it is a Kadison-Singer input with N = m/d.
    """
    k = np.arange(m)[:, None]
    angles = 2.0 * np.pi * np.arange(1, (d + 1) // 2)[None, :] * k / m
    rows = np.hstack([np.full((m, 1), math.sqrt(0.5)), np.cos(angles), np.sin(angles)])
    return VectorFamily(rows * math.sqrt(2.0 / m))


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
