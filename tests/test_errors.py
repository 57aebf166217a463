"""Bad input handed to the search structures directly raises a taxonomy error:
ConfigError for a parameter outside its window, PreconditionViolation for
input data a structure cannot take."""

import numpy as np
import pytest

from sparsekit.afn import DfnStructure, philox_keys
from sparsekit.errors import (
    ConfigError,
    DimensionMismatch,
    PreconditionViolation,
    SparsekitError,
)
from sparsekit.hashing import PolyHash
from sparsekit.minip import RobustMinIpIndex, minip_transform_dataset, minip_transform_query
from sparsekit.pointstore import PointStore
from sparsekit.sketch import fwht

#: a unit vector but for one NaN coordinate: every norm test must refuse it
NAN_ROW = np.array([np.nan, 0.0, 0.0, 0.0])

CASES = {
    "dfn-cbar": (ConfigError, lambda: DfnStructure(PointStore([[0.0]]), 1.0, [0])),
    "dfn-cbar-nan": (ConfigError, lambda: DfnStructure(PointStore([[0.0]]), np.nan, [0])),
    "dfn-no-points": (
        PreconditionViolation,
        lambda: DfnStructure(PointStore(np.empty((0, 2))), 2.0, [0]),
    ),
    "dfn-radius": (
        ConfigError,
        lambda: DfnStructure(PointStore([[0.0], [1.0]]), 2.0, philox_keys(0)).query(
            np.zeros(1), 0.0
        ),
    ),
    "polyhash-k": (ConfigError, lambda: PolyHash(1, 13, seed=0)),
    "polyhash-range": (ConfigError, lambda: PolyHash(2, 0, seed=0)),
    "dataset-zero-diameter": (
        PreconditionViolation,
        lambda: minip_transform_dataset(np.zeros((2, 3))),
    ),
    "dataset-beyond-dx": (
        PreconditionViolation,
        lambda: minip_transform_dataset(np.array([[3.0, 0.0]]), D_X=1.0),
    ),
    "dataset-nan-row-within-dx": (
        PreconditionViolation,
        lambda: minip_transform_dataset(np.array([[np.nan, 0.0], [0.5, 0.0]]), D_X=1.0),
    ),
    "query-zero-norm": (PreconditionViolation, lambda: minip_transform_query(np.zeros(3))),
    "query-beyond-dy": (
        PreconditionViolation,
        lambda: minip_transform_query(np.array([3.0, 0.0]), D_Y=1.0),
    ),
    "query-nan-within-dy": (
        PreconditionViolation,
        lambda: minip_transform_query(np.array([np.nan, 0.0]), D_Y=1.0),
    ),
    "index-non-unit-points": (
        PreconditionViolation,
        lambda: RobustMinIpIndex(2.0 * np.eye(4), c=0.50005, tau=0.5, seed=0),
    ),
    "index-non-unit-insert": (
        PreconditionViolation,
        lambda: RobustMinIpIndex(np.eye(4), c=0.50005, tau=0.5, seed=0).insert(2.0 * np.eye(4)[0]),
    ),
    "index-nan-points": (
        PreconditionViolation,
        lambda: RobustMinIpIndex(np.vstack([np.eye(4), NAN_ROW]), c=0.50005, tau=0.5, seed=0),
    ),
    "index-nan-insert": (
        PreconditionViolation,
        lambda: RobustMinIpIndex(np.eye(4), c=0.50005, tau=0.5, seed=0).insert(NAN_ROW),
    ),
    # refused at the norm test, before the AFN radius check's ConfigError
    "index-nan-query": (
        DimensionMismatch,
        lambda: RobustMinIpIndex(np.eye(4), c=0.50005, tau=0.5, seed=0).query(
            NAN_ROW, np.random.default_rng(0)
        ),
    ),
    "fwht-length": (PreconditionViolation, lambda: fwht(np.zeros(3))),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_raises_a_taxonomy_error(case):
    expected, call = CASES[case]
    with pytest.raises(SparsekitError) as info:
        call()
    assert type(info.value) is expected
    assert isinstance(info.value, ValueError)  # callers catching ValueError still do
