"""The adaptive inner-product estimator against a sketch oracle.

The oracle keeps its points in a dict, regenerates every sampled sketch from
SeedSequence(seed).spawn(pool)[j], and applies it to each transformed point
directly, as the estimator's definition reads: a short s_dim x (D+2)
Gaussian S_j as it is drawn, and for a tall s_dim the (D+2) x (D+2) factor
R_j rebuilt from its Bartlett draws.  That R_j has the law of the full
sketch's factor, which test_tall_factor_has_the_gaussian_sketch_law checks
against explicit Gaussian sketches.  The oracle shares the estimator's
unit-sphere transform (tested in test_minip): a point or query on the unit
sphere has a tail coordinate of sqrt(rounding error), which a sketch passes
on linearly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sparsekit import aipe
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
        self.radius = max(self.radius, float(np.linalg.norm(z[None], axis=1)[0]))

    def sketch(self, j):
        return bartlett_or_gaussian_sketch(self.children[j], self.s_dim, self.dim + 2)

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


def bartlett_or_gaussian_sketch(child, s_dim, p):
    """Pool member j's sketch from its SeedSequence: S / sqrt(s_dim) for a short
    s_dim <= p; for a tall one, L^T / sqrt(s_dim) with L lower triangular,
    N(0, 1) entries below the diagonal in row-major order, then
    L_ii = sqrt(chi^2(s_dim - i)) drawn in one call."""
    gen = np.random.Generator(np.random.Philox(child))
    if s_dim <= p:
        return gen.standard_normal((s_dim, p)) / math.sqrt(s_dim)
    L = np.zeros((p, p))
    rows, cols = np.tril_indices(p, -1)
    L[rows, cols] = gen.standard_normal(len(rows))
    L[range(p), range(p)] = np.sqrt(gen.chisquare([s_dim - i for i in range(p)]))
    return L.T / math.sqrt(s_dim)


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
        # no deletes yet, so entry i belongs to id i
        np.testing.assert_allclose(got, [want[i] for i in range(len(points))], rtol=1e-10)



def per_sketch_estimates(est: InnerProductEstimator, q, rng) -> np.ndarray:
    """The median over the sampled members of each sketch's own distances,
    np.linalg.norm(diff @ R_j.T, axis=1), one member at a time."""
    aug, _ = minip_transform_dataset(est._store.points, est.radius)
    qa, _ = minip_transform_query(q, 1.0)
    diff = aug - qa
    picks = rng.choice(est.pool, size=est.samples, replace=False)
    factors = est._factors_of(picks.tolist())
    return np.median([np.linalg.norm(diff @ R.T, axis=1) for R in factors], axis=0)


# (c, tau) = (0.9, 0.5), expdesign-aipe's window, asks (1 + eps)^2 = 1.125
EXPDESIGN_EPS = math.sqrt(1.125) - 1.0


@pytest.mark.parametrize("samples", [None, 4])  # the estimator's own (odd) count, and an even one
@pytest.mark.parametrize(
    "dim, eps, s_dim",
    [(16, EXPDESIGN_EPS, 2175), (16, 3.0, 1)],  # tall as on expdesign-aipe, short as on ks-aipe
)
def test_stacked_estimates_are_the_per_sketch_medians(dim, eps, s_dim, samples):
    """The stacked factors applied block by block, and one median, give each
    point the median of its per-sketch distances, after deletes and an
    insert that grows the radius: at expdesign-aipe's n, in one GEMM block,
    and at a size whose GEMM runs over two blocks."""
    for m in (772, aipe.BLOCK_ROWS + 772):
        rng = np.random.default_rng(7)
        est = InnerProductEstimator(rng.standard_normal((m, dim)), eps, SEED)
        assert est.s_dim == s_dim
        if samples is not None:
            est.samples = samples
        assert est.samples % 2 == (samples is None)
        est.delete(3)
        est.delete(500)
        est.insert(3.0 * rng.standard_normal(dim))
        for t in range(4):
            q = unit(rng.standard_normal(dim)) * (0.5 if t % 2 else 1.0)
            got = est.distance_estimates(q, np.random.default_rng(t))
            want = per_sketch_estimates(est, q, np.random.default_rng(t))
            np.testing.assert_allclose(got, want, rtol=1e-12)


def test_a_cold_query_draws_each_sampled_factor_once_and_a_repeat_none():
    rng = np.random.default_rng(8)
    est = InnerProductEstimator(rng.standard_normal((50, 16)), EXPDESIGN_EPS, SEED)
    q = unit(rng.standard_normal(16))
    est.query_min(q, np.random.default_rng(0))
    picks = np.random.default_rng(0).choice(est.pool, size=est.samples, replace=False)
    assert sorted(est._factors) == sorted(picks.tolist())
    cached = dict(est._factors)
    est.query_min(q, np.random.default_rng(0))
    assert len(est._factors) == est.samples
    assert all(est._factors[j] is R for j, R in cached.items())


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
    oracle's estimates, and no cached factor outgrows min(s_dim, D+2) rows."""
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


def assert_gaussian_sketch_law(sketches, s_dim, p):
    """Checks that R^T R has the law of S^T S / s_dim, S an s_dim x p Gaussian:
    s_dim ||R v||^2 ~ chi^2(s_dim) for a fixed unit v (KS test), and every entry
    of the mean R^T R within 5 standard errors of the identity's."""
    v = unit(np.arange(1.0, p + 1))
    norms, gram_sum = [], np.zeros((p, p))
    for R in sketches:
        norms.append(s_dim * float(np.sum((R @ v) ** 2)))
        gram_sum += R.T @ R
    N = len(norms)
    assert stats.kstest(norms, "chi2", args=(s_dim,)).pvalue > 1e-3
    se = np.where(np.eye(p, dtype=bool), math.sqrt(2.0 / (s_dim * N)), math.sqrt(1.0 / (s_dim * N)))
    assert np.all(np.abs(gram_sum / N - np.eye(p)) <= 5.0 * se)


@pytest.mark.parametrize("s_dim", [9, 32, 2172])  # D+3, 4(D+2) and about expdesign-aipe's
def test_tall_factor_has_the_gaussian_sketch_law(s_dim):
    """2,000 members' cached factors pass the checks of the Gaussian sketch's
    law, and so do explicit Gaussian sketches S / sqrt(s_dim), as a control."""
    p, members = DIM + 2, 2000
    est = InnerProductEstimator(np.eye(DIM), math.sqrt(8.0 / (s_dim - 0.5)), SEED)
    assert est.s_dim == s_dim
    assert_gaussian_sketch_law(est._factors_of(list(range(members))), s_dim, p)
    rng = np.random.default_rng(5)
    explicit = (rng.standard_normal((s_dim, p)) / math.sqrt(s_dim) for _ in range(members))
    assert_gaussian_sketch_law(explicit, s_dim, p)


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


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "grow", "delete"]), st.integers(0, 2**16)),
        min_size=1,
        max_size=12,
    )
)
def test_kept_transforms_give_a_fresh_estimators_estimates(ops):
    """After deletes, inserts inside the radius and inserts that grow it, the
    estimates are == those of an estimator built afresh over the live points,
    given the same pool (a build sizes it by its point count).  The largest
    point is never deleted, so both radii are the largest norm."""
    rng = np.random.default_rng(3)
    points = rng.standard_normal((40, DIM))
    est = InnerProductEstimator(points, EXPDESIGN_EPS, SEED)
    live = dict(enumerate(points))
    for kind, k in ops:
        if kind == "delete" and len(live) > 1:
            largest = max(live, key=lambda pid: np.linalg.norm(live[pid]))
            pid = sorted(set(live) - {largest})[k % (len(live) - 1)]
            est.delete(pid)
            del live[pid]
        elif kind == "grow":
            z = 1.5 * est.radius * unit(rng.standard_normal(DIM))
            live[est.insert(z)] = z
        elif kind == "insert":
            z = 0.5 * est.radius * unit(rng.standard_normal(DIM))
            live[est.insert(z)] = z
    fresh = InnerProductEstimator(np.stack([live[pid] for pid in sorted(live)]), est.eps, SEED)
    assert fresh.radius == est.radius
    fresh.pool, fresh.samples = est.pool, est.samples
    for t in range(3):
        q = unit(rng.standard_normal(DIM)) * (0.5 if t % 2 else 1.0)
        got = est.distance_estimates(q, np.random.default_rng(t))
        assert np.array_equal(got, fresh.distance_estimates(q, np.random.default_rng(t)))


def test_tie_returns_lowest_id():
    p = unit(np.arange(1.0, DIM + 1))
    # ids 1 and 3 are the same point, the furthest from the query p
    points = np.array([0.5 * p, -p, 0.1 * p, -p])
    est = InnerProductEstimator(points, 0.5, SEED)
    assert est.query_min(p, np.random.default_rng(0)) == 1
    est.delete(0)  # ids 1 and 3 still tie, and the lower wins
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


def test_two_estimators_queried_interleaved_answer_as_each_alone():
    """The factors two estimators draw in turn, cold on each query, come out
    as each draws them alone: no generator state is shared."""
    rng = np.random.default_rng(12)
    points = rng.standard_normal((40, DIM))
    queries = [unit(rng.standard_normal(DIM)) for _ in range(8)]
    seeds, eps = (SEED, SEED + 1), EXPDESIGN_EPS  # tall factors: normals, then chi-squares
    pair = [InnerProductEstimator(points, eps, seed) for seed in seeds]
    interleaved = [[], []]
    for t, q in enumerate(queries):
        for side in (0, 1):
            interleaved[side].append(pair[side].distance_estimates(q, np.random.default_rng(t)))
    for side, seed in enumerate(seeds):
        alone = InnerProductEstimator(points, eps, seed)
        for t, (q, got) in enumerate(zip(queries, interleaved[side], strict=True)):
            np.testing.assert_array_equal(got, alone.distance_estimates(q, np.random.default_rng(t)))
    assert not np.array_equal(pair[0]._factors_of([0])[0], pair[1]._factors_of([0])[0])


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError):
        InnerProductEstimator(np.eye(DIM), 0.5, -1)


def test_errors_are_taxonomy_errors():
    with pytest.raises(PreconditionViolation, match="at least one point"):
        InnerProductEstimator(np.zeros((0, DIM)), 0.5, SEED)
    est = InnerProductEstimator(np.eye(DIM), 0.5, SEED)
    for bad in (np.ones(DIM + 1), np.full((1, DIM), 10.0), 10.0):
        with pytest.raises(DimensionMismatch):
            est.insert(bad)  # refused before the radius, 1.0, can grow to its norm
    assert est.count == DIM and est._store.next_id == DIM and est.radius == 1.0
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


def test_all_zero_points_take_radius_1_and_answer_a_query():
    """A zero radius would lift no point, so the build takes 1.0, which every
    later query lifts under until an insert grows it; each estimate is the
    oracle's, and the tied zero points answer with the lowest id."""
    points = np.zeros((4, DIM))
    est = InnerProductEstimator(points, 0.5, SEED)
    oracle = Oracle(points, est)
    assert est.radius == oracle.radius == 1.0
    q = unit(np.arange(1.0, DIM + 1))
    assert est.query_min(q, np.random.default_rng(0)) == 0
    for z, radius in ((0.5 * q, 1.0), (-2.0 * q, 2.0)):
        est.insert(z)
        oracle.insert(z)
        assert est.radius == radius
        got = est.distance_estimates(q, np.random.default_rng(1))
        want = oracle.estimates(q, np.random.default_rng(1))
        np.testing.assert_allclose(got, [want[pid] for pid in sorted(want)], rtol=1e-10)


def test_updates_lift_nothing_and_a_query_lifts_once(monkeypatch):
    """Inserts and deletes touch only the store and the radius; each query
    lifts the live points once, under the radius of that moment."""
    radii = []
    lift = aipe.minip_transform_dataset

    def counted(X, D_X):
        radii.append(D_X)
        return lift(X, D_X)

    monkeypatch.setattr(aipe, "minip_transform_dataset", counted)
    est = InnerProductEstimator(np.eye(DIM), 0.5, SEED)
    est.insert(np.full(DIM, 2.0))
    est.delete(0)
    est.insert(np.ones(DIM))
    assert radii == []
    est.query_min(unit(np.ones(DIM)), np.random.default_rng(0))
    assert radii == [est.radius] == [math.sqrt(4.0 * DIM)]
