"""Matrix ingestion: Matrix Market (canonical, sparse-friendly) and CSV.

One rule on the file name decides the format, for reading and writing
alike: Matrix Market for a .mtx or .mtx.gz name and CSV for any other,
gzipped if the name ends in .gz.  Rows of the parsed matrix become the
vectors of a VectorFamily, which holds them densely whatever the file's
format.  Its per-row nnz, which the tree-choice cost model reads, counts
the nonzero values, so an entry a coordinate file stores explicitly as zero
counts as a zero.
"""

from __future__ import annotations

import gzip

import numpy as np
import scipy.io
import scipy.sparse

from .errors import PreconditionViolation
from .linalg import VectorFamily

__all__ = ["parse_matrix_file", "write_matrix_file"]

_MATRIX_MARKET = (".mtx", ".mtx.gz")


def parse_matrix_file(path: str) -> VectorFamily:
    """Read a vector family: Matrix Market from a .mtx or .mtx.gz file, CSV otherwise."""
    if str(path).endswith(_MATRIX_MARKET):
        try:
            mat = scipy.io.mmread(path)
        except Exception as exc:
            raise PreconditionViolation(f"cannot parse {path}: {exc}") from exc
        if scipy.sparse.issparse(mat):
            return VectorFamily(mat.toarray())
        return VectorFamily(np.atleast_2d(mat))
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise PreconditionViolation(f"cannot parse {path}: {exc}") from exc
    return VectorFamily(arr)


def write_matrix_file(path: str, rows: np.ndarray) -> None:
    """Write rows at full precision: Matrix Market to a .mtx or .mtx.gz file, CSV otherwise."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if str(path).endswith(_MATRIX_MARKET):
        with (gzip.open if str(path).endswith(".gz") else open)(path, "wb") as f:
            scipy.io.mmwrite(f, rows, precision=17)
    else:
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
