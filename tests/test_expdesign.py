"""Swap rounding's input checks on the fractional design pi and the family."""

import numpy as np
import pytest

from sparsekit import expdesign
from sparsekit.errors import PreconditionViolation
from sparsekit.linalg import VectorFamily, whiten


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
