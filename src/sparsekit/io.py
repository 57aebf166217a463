"""Matrix ingestion: Matrix Market (canonical, sparse-friendly) and CSV.

Rows of the parsed matrix become the vectors of a VectorFamily, which holds
them densely whatever the file's format.  Its per-row nnz, which the
tree-choice cost model reads, counts the nonzero values, so an entry a
coordinate file stores explicitly as zero counts as a zero.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse

from .errors import PreconditionViolation
from .linalg import VectorFamily

__all__ = ["parse_matrix_file", "write_matrix_file"]


def parse_matrix_file(path: str, fmt: str = None) -> VectorFamily:
    """Read a vector family from a .mtx or .csv file; fmt defaults by suffix."""
    if fmt is None:
        fmt = "matrix-market" if str(path).endswith((".mtx", ".mtx.gz")) else "csv"
    if fmt == "matrix-market":
        try:
            mat = scipy.io.mmread(path)
        except Exception as exc:
            raise PreconditionViolation(f"cannot parse {path}: {exc}") from exc
        if scipy.sparse.issparse(mat):
            return VectorFamily(mat.toarray())
        return VectorFamily(np.atleast_2d(mat))
    if fmt == "csv":
        try:
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise PreconditionViolation(f"cannot parse {path}: {exc}") from exc
        return VectorFamily(arr)
    raise PreconditionViolation(f"unknown format {fmt!r}")


def write_matrix_file(path: str, rows: np.ndarray, fmt: str = None) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if fmt is None:
        fmt = "matrix-market" if str(path).endswith(".mtx") else "csv"
    if fmt == "matrix-market":
        scipy.io.mmwrite(path, rows, precision=17)
    elif fmt == "csv":
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    else:
        raise PreconditionViolation(f"unknown format {fmt!r}")
