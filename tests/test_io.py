"""Matrix files: CSV and Matrix Market (array and coordinate) round trips."""

import gzip

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from sparsekit.errors import PreconditionViolation
from sparsekit.io import parse_matrix_file, write_matrix_file


def sample_rows(rng) -> np.ndarray:
    rows = rng.standard_normal((5, 4))
    rows[1, 2] = rows[3, 0] = rows[3, 3] = 0.0
    return rows


@pytest.mark.parametrize(
    "name, header",
    [("rows.csv", None), ("rows.mtx", "array"), ("rows.mtx.gz", "array")],
)
def test_dense_formats_round_trip(tmp_path, rng, name, header):
    rows = sample_rows(rng)
    path = str(tmp_path / name)
    write_matrix_file(path, rows)
    if header is not None:
        with (gzip.open if name.endswith(".gz") else open)(path, "rt") as f:
            assert header in f.readline()
    family = parse_matrix_file(path)
    assert np.array_equal(family.vectors, rows)
    assert family.nnz_per_row.tolist() == [4, 3, 4, 2, 4]


def test_matrix_market_coordinate_round_trip(tmp_path, rng):
    # write_matrix_file writes dense arrays; coordinate files come from
    # scipy's writer, as the benchmark's sparse workload writes them
    rows = sample_rows(rng)
    path = str(tmp_path / "rows.mtx")
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(rows), precision=17)
    with open(path) as f:
        assert "coordinate" in f.readline()
    family = parse_matrix_file(path)
    assert np.array_equal(family.vectors, rows)
    assert family.nnz_per_row.tolist() == [4, 3, 4, 2, 4]


def test_explicitly_stored_zero_is_not_counted(tmp_path):
    path = tmp_path / "zeros.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 3 4\n"
        "1 1 1.5\n"
        "1 2 0.0\n"
        "2 2 0.0\n"
        "2 3 -2.0\n"
    )
    family = parse_matrix_file(str(path))
    assert np.array_equal(family.vectors, [[1.5, 0.0, 0.0], [0.0, 0.0, -2.0]])
    assert family.nnz_per_row.tolist() == [1, 1]


COMPLEX_FILES = {
    "array": "%%MatrixMarket matrix array complex general\n2 2\n1 0\n0 0\n0 0\n1 2\n",
    "coordinate": "%%MatrixMarket matrix coordinate complex general\n2 2 2\n1 1 1 0\n2 2 1 2\n",
}


@pytest.mark.parametrize("layout", sorted(COMPLEX_FILES))
def test_complex_matrix_market_is_precondition_violation(tmp_path, layout):
    # entries 1, 0, 0, 1+2i: a float cast would read the 2x2 identity
    path = tmp_path / "complex.mtx"
    path.write_text(COMPLEX_FILES[layout])
    with pytest.raises(PreconditionViolation, match="complex entries"):
        parse_matrix_file(str(path))


@pytest.mark.parametrize(
    "text",
    [
        "%%MatrixMarket matrix array real general\n2 2\n1.0\nnot-a-number\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
        "not a matrix market header\n",
    ],
    ids=["bad-entry", "short-coordinate", "no-header"],
)
def test_malformed_matrix_market_is_precondition_violation(tmp_path, text):
    path = tmp_path / "broken.mtx"
    path.write_text(text)
    with pytest.raises(PreconditionViolation, match="cannot parse"):
        parse_matrix_file(str(path))
