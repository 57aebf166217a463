"""One eigendecomposition per KS step, and one symmetry check per KS and BSS solve."""

import numpy as np
import pytest

from sparsekit import kadison_singer, sparsifier
from sparsekit.errors import DimensionMismatch

from conftest import random_isotropic_family, random_ks_family

N, n = 8, 8


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("backend", ["exact", "aipe"])
def test_one_eigendecomposition_per_step(monkeypatch, rng, backend):
    family = random_ks_family(2, N, rng)
    eighs = count_calls(monkeypatch, kadison_singer, "eigendecompose")
    eigvalshs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    kwargs = {} if backend == "exact" else {"c": 0.505, "tau": 0.5}
    result = kadison_singer.ks_select(family, N, n, backend=backend, **kwargs)
    assert len(eighs) == n + 1  # T = 0, then once after each of the n updates
    assert len(eigvalshs) == 1  # the final norm, from the reconstructed selection
    assert len(result.potential_trace) == n + 1


class AsymmetricStart:
    """numpy, except that a 2-D zeros() has 1e-6 at its top-right entry.

    Both solvers start their accumulator from np.zeros((d, d)) and add
    symmetric updates to it, so every accumulator they form is asymmetric.
    eigh reads the lower triangle only, so a loop given this keeps running
    and only a symmetry check can see the change.
    """

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def zeros(shape, *args, **kwargs):
        M = np.zeros(shape, *args, **kwargs)
        if M.ndim == 2:
            M[0, -1] += 1e-6
        return M


def run_ks(rng):
    kadison_singer.ks_select(random_ks_family(2, N, rng), N, n)


def run_bss(rng):
    sparsifier.bss_reference(random_isotropic_family(40, 4, rng), 0.5)


@pytest.mark.parametrize(
    "module, solve", [(kadison_singer, run_ks), (sparsifier, run_bss)], ids=["ks", "bss"]
)
def test_asymmetric_update_fails_the_once_per_solve_check(monkeypatch, module, solve):
    checks = count_calls(monkeypatch, module, "check_symmetric")
    solve(np.random.default_rng(1))
    assert len(checks) == 1
    monkeypatch.setattr(module, "np", AsymmetricStart())
    with pytest.raises(DimensionMismatch, match="not symmetric"):
        solve(np.random.default_rng(1))
