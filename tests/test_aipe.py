"""The adaptive inner-product estimator against a full-sketch oracle.

The oracle keeps its points in a dict, regenerates every sampled s_dim x (D+2)
Gaussian sketch from SeedSequence(seed).spawn(pool)[j], and applies it to
each transformed point directly, as the estimator's definition reads.  It
shares the estimator's unit-sphere transform (tested in test_minip): a point
or query on the unit sphere has a tail coordinate of sqrt(rounding error),
which a sketch passes on linearly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.aipe import InnerProductEstimator
from sparsekit.errors import ConfigError, DimensionMismatch, NotFound, PreconditionViolation
from sparsekit.minip import minip_transform_dataset, minip_transform_query

DIM, SEED = 6, 11


class Oracle:
    def __init__(self, points, est: InnerProductEstimator, seed=SEED):
        self.points = dict(enumerate(np.asarray(points, dtype=float)))
        self.dim = np.shape(points)[1]
        self.radius = float(np.linalg.norm(points, axis=1).max()) or 1.0
        self.s_dim, self.pool, self.samples = est.s_dim, est.pool, est.samples
        self.children = np.random.SeedSequence(seed).spawn(self.pool)
        self.next_id = len(self.points)

    def insert(self, z):
        self.points[self.next_id] = z
        self.next_id += 1
        self.radius = max(self.radius, float(np.linalg.norm(z)))

    def sketch(self, j):
        gen = np.random.Generator(np.random.Philox(self.children[j]))
        return gen.standard_normal((self.s_dim, self.dim + 2)) / math.sqrt(self.s_dim)

    def estimates(self, q, rng) -> dict:
        """Id -> median over the sampled sketches of ||S (a_i - q_a)||."""
        picks = rng.choice(self.pool, size=self.samples, replace=False)
        qa, _ = minip_transform_query(q, 1.0)
        aug, _ = minip_transform_dataset(np.stack(list(self.points.values())), self.radius)
        return {
            pid: float(np.median([np.linalg.norm(self.sketch(j) @ (a - qa)) for j in picks]))
            for pid, a in zip(self.points, aug)
        }

    def query_min(self, q, rng) -> int:
        est = self.estimates(q, rng)
        return max(est, key=lambda pid: (est[pid], -pid))


def unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("eps", [0.5, 2.0])  # s_dim = 32 > D+2 = 8, and s_dim = 2 < 8
def test_estimates_match_full_sketch_oracle(eps):
    rng = np.random.default_rng(1)
    points = rng.standard_normal((40, DIM))
    est = InnerProductEstimator(points, eps, SEED)
    oracle = Oracle(points, est)
    for t in range(5):
        q = unit(rng.standard_normal(DIM)) * (0.5 if t % 2 else 1.0)
        got = est.distance_estimates(q, np.random.default_rng(t))
        want = oracle.estimates(q, np.random.default_rng(t))
        # no deletes yet, so slot i holds id i
        np.testing.assert_allclose(got, [want[i] for i in range(len(points))], rtol=1e-10)


@st.composite
def sketch_shapes(draw):
    """(dim, eps, seed) whose s_dim = ceil(8 / eps^2) is short (<= D+2), the
    smallest tall size D+3, or many times D+2."""
    dim = draw(st.integers(1, 8))
    s_dim = draw(
        st.one_of(st.integers(1, dim + 2), st.just(dim + 3), st.integers(8 * (dim + 2), 400))
    )
    # 8 / eps^2 = s_dim - 1/2, so the ceiling is s_dim with room for roundoff
    return dim, math.sqrt(8.0 / (s_dim - 0.5)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(shape=sketch_shapes())
def test_every_sketch_shape_matches_full_sketch_oracle(shape):
    """Short sketches, the smallest tall one and far taller ones all give the
    full sketch's estimates, and no cached factor outgrows min(s_dim, D+2) rows."""
    dim, eps, seed = shape
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((12, dim))
    est = InnerProductEstimator(points, eps, seed)
    assert est.s_dim == math.ceil(8.0 / eps**2)
    oracle = Oracle(points, est, seed)
    for t in range(3):
        q = unit(rng.standard_normal(dim))
        got = est.distance_estimates(q, np.random.default_rng(t))
        want = oracle.estimates(q, np.random.default_rng(t))
        np.testing.assert_allclose(got, [want[i] for i in range(len(points))], rtol=1e-10)
    assert est._factors
    for R in est._factors.values():
        assert R.shape == (min(est.s_dim, dim + 2), dim + 2)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "query"]), st.integers(0, 2**16)),
        min_size=1,
        max_size=20,
    )
)
def test_insert_delete_sequence_against_oracle(ops):
    """Inserts that grow the radius, deletes, and queries in any order: every
    answer is the oracle's, and a deleted id is never returned."""
    rng = np.random.default_rng(2)
    points = rng.standard_normal((6, DIM))
    est = InnerProductEstimator(points, 0.5, SEED)
    oracle = Oracle(points, est)
    deleted = set()
    for kind, k in ops:
        if kind == "insert":
            z = rng.standard_normal(DIM) * (1.0 + k % 4)  # norms up to ~4x the start
            assert est.insert(z) == oracle.next_id
            oracle.insert(z)
        elif kind == "delete" and len(oracle.points) > 1:
            pid = sorted(oracle.points)[k % len(oracle.points)]
            est.delete(pid)
            del oracle.points[pid]
            deleted.add(pid)
        assert est.count == len(oracle.points)
        q = unit(rng.standard_normal(DIM))
        got = est.query_min(q, np.random.default_rng(k))
        assert got not in deleted
        assert got == oracle.query_min(q, np.random.default_rng(k))
        np.testing.assert_allclose(
            np.sort(est.distance_estimates(q, np.random.default_rng(k))),
            np.sort(list(oracle.estimates(q, np.random.default_rng(k)).values())),
            rtol=1e-10,
        )


def test_tie_returns_lowest_id():
    p = unit(np.arange(1.0, DIM + 1))
    # ids 1 and 3 are the same point, the furthest from the query p
    points = np.array([0.5 * p, -p, 0.1 * p, -p])
    est = InnerProductEstimator(points, 0.5, SEED)
    assert est.query_min(p, np.random.default_rng(0)) == 1
    est.delete(0)  # id 3 moves into the freed slot, ahead of id 1
    assert est.query_min(p, np.random.default_rng(0)) == 1
    est.delete(1)
    assert est.insert(-p) == 4
    assert est.query_min(p, np.random.default_rng(0)) == 3


def test_double_delete_raises_not_found():
    est = InnerProductEstimator(np.eye(DIM), 0.5, SEED)
    est.delete(2)
    with pytest.raises(NotFound):
        est.delete(2)
    with pytest.raises(NotFound):
        est.delete(DIM)  # never stored


def test_same_seed_same_answers():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((30, DIM))
    a, b = (InnerProductEstimator(points, 0.5, SEED) for _ in range(2))
    for t in range(10):
        q = unit(rng.standard_normal(DIM))
        assert a.query_min(q, np.random.default_rng(t)) == b.query_min(q, np.random.default_rng(t))
        np.testing.assert_array_equal(
            a.distance_estimates(q, np.random.default_rng(t)),
            b.distance_estimates(q, np.random.default_rng(t)),
        )


def test_errors_are_taxonomy_errors():
    with pytest.raises(PreconditionViolation, match="at least one point"):
        InnerProductEstimator(np.zeros((0, DIM)), 0.5, SEED)
    est = InnerProductEstimator(np.eye(DIM), 0.5, SEED)
    with pytest.raises(DimensionMismatch):
        est.insert(np.ones(DIM + 1))
    with pytest.raises(DimensionMismatch):
        est.query_min(np.ones(DIM - 1) / DIM, np.random.default_rng(0))


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_eps_outside_its_window_is_a_config_error(eps):
    with pytest.raises(ConfigError, match="eps"):
        InnerProductEstimator(np.eye(DIM), eps, SEED)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused(bad):
    points = np.eye(DIM)
    points[2, 3] = bad
    with pytest.raises(PreconditionViolation, match="finite"):
        InnerProductEstimator(points, 0.5, SEED)
    est = InnerProductEstimator(np.eye(DIM), 0.5, SEED)
    z = np.full(DIM, 0.1)
    z[0] = bad
    with pytest.raises(PreconditionViolation, match="finite"):
        est.insert(z)
    with pytest.raises(PreconditionViolation, match="finite"):
        est.query_min(z, np.random.default_rng(0))
    assert est.count == DIM


def test_query_after_every_point_is_deleted_raises_not_found():
    est = InnerProductEstimator(np.eye(DIM), 0.5, SEED)
    for pid in range(DIM):
        est.delete(pid)
    with pytest.raises(NotFound):
        est.query_min(np.ones(DIM) / DIM, np.random.default_rng(0))
    assert est.insert(np.ones(DIM)) == DIM
    assert est.query_min(np.ones(DIM) / DIM, np.random.default_rng(0)) == DIM
