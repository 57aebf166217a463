"""Matrix ingestion: Matrix Market (canonical, sparse-friendly) and CSV.

The file name decides the format: parse_matrix_file reads Matrix Market
from a .mtx or .mtx.gz file and CSV from any other, and write_matrix_file
writes Matrix Market to a .mtx file and CSV to any other.  Rows of the
parsed matrix become the vectors of a VectorFamily, which holds them
densely whatever the file's format.  Its per-row nnz, which the tree-choice
cost model reads, counts the nonzero values, so an entry a coordinate file
stores explicitly as zero counts as a zero.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse

from .errors import PreconditionViolation
from .linalg import VectorFamily

__all__ = ["parse_matrix_file", "write_matrix_file"]


def parse_matrix_file(path: str) -> VectorFamily:
    """Read a vector family: Matrix Market from a .mtx or .mtx.gz file, CSV otherwise."""
    if str(path).endswith((".mtx", ".mtx.gz")):
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
    """Write rows at full precision: Matrix Market to a .mtx file, CSV otherwise."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if str(path).endswith(".mtx"):
        scipy.io.mmwrite(path, rows, precision=17)
    else:
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
