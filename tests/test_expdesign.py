"""Swap rounding: input and window checks, and the afn backend queried after inserts."""

import numpy as np
import pytest

from sparsekit import expdesign
from sparsekit.errors import ConfigError, PreconditionViolation
from sparsekit.linalg import VectorFamily, whiten

from test_solvers_golden import rare_direction_rows


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
def test_pi_outside_the_unit_interval_is_precondition_violation(rng, bad):
    # feasible apart from pi[0]: n >= 6d/eps^2/(gamma-1-2/c) = 385.7 at d=2,
    # eps=0.2, gamma=4, c=0.9, the CLI defaults
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    pi[0] = bad
    with pytest.raises(PreconditionViolation, match=r"pi must lie in \[0, 1\]\^m"):
        expdesign.swap_round(family, pi, n, 0.2)


def test_family_not_whitened_for_pi_is_precondition_violation(rng):
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))))  # isotropic, not for pi
    with pytest.raises(PreconditionViolation, match="whiten the family first"):
        expdesign.swap_round(family, pi, n, 0.2)


def test_aipe_backend_refuses_negative_tau(rng):
    m, n = 800, 400
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rng.standard_normal((m, 2))), pi)
    with pytest.raises(ConfigError, match="tau=-0.5 violates 0 < tau < 1"):
        expdesign.swap_round(family, pi, n, 0.2, tau=-0.5, backend="aipe")


def test_afn_backend_queries_after_inserts(monkeypatch):
    # the random start misses both rare directions, so it takes two swaps, and
    # the second removal is proposed by an index that has had a row inserted
    d, n, m = 4, 310, 1240
    eps, gamma = 1.0 / 6.0, 6.0
    calls = []
    for name in ("propose", "insert"):
        method = getattr(expdesign.MinIpBackend, name)

        def spy(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(expdesign.MinIpBackend, name, spy)
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(3, m, d)), pi)
    out = expdesign.swap_round(
        family, pi, n, eps, gamma=gamma, c=0.905, tau=0.9, backend="afn", seed=3
    )
    assert out.swaps >= 2
    assert out.lambda_min > 1.0 - gamma * eps
    assert "propose" in calls[calls.index("insert") + 1 :]
