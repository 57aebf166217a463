"""Asymmetric transform, the tests' exact oracle, and the robust Min-IP index."""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import exact_min_ip
from sparsekit import minip
from sparsekit.afn import AfnStructure, solve_threshold
from sparsekit.errors import ConfigError, DimensionMismatch, NotFound, PreconditionViolation
from sparsekit.minip import (
    MinIpConfig,
    RobustMinIpIndex,
    minip_transform_dataset,
    minip_transform_query,
)


class TestTransform:
    def test_dataset_formula(self):
        out, dx = minip_transform_dataset(np.array([[1.0, 0.0]]), D_X=2.0)
        assert dx == 2.0
        assert np.allclose(out[0], [0.5, 0.0, 0.0, math.sqrt(3.0) / 2.0])
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-12)

    def test_query_formula(self):
        out, dy = minip_transform_query(np.array([3.0, 4.0]), D_Y=5.0)
        assert dy == 5.0
        assert np.allclose(out, [0.6, 0.8, 0.0, 0.0])

    def test_default_dy_normalizes(self):
        out, dy = minip_transform_query(np.array([3.0, 4.0]))
        assert dy == 5.0
        assert np.allclose(out, [0.6, 0.8, 0.0, 0.0])

    def test_oversized_point_rejected(self):
        with pytest.raises(ValueError):
            minip_transform_dataset(np.array([[3.0, 0.0]]), D_X=1.0)

    def test_distance_ip_duality(self, rng):
        X = rng.standard_normal((100, 5))
        q = rng.standard_normal(5)
        pts, dx = minip_transform_dataset(X)
        qa, dy = minip_transform_query(q)
        for x_aug, x in zip(pts, X):
            lhs = np.linalg.norm(x_aug - qa) ** 2
            ip = float(x_aug @ qa)
            assert abs(lhs + 2.0 * ip - 2.0) <= 1e-12
            assert ip == pytest.approx(float(x @ q) / (dx * dy), abs=1e-12)

    def test_furthest_is_argmin_ip(self, rng):
        X = rng.standard_normal((100, 4))
        pts, _ = minip_transform_dataset(X)
        for _ in range(20):
            q = rng.standard_normal(4)
            qa, _ = minip_transform_query(q)
            dists = np.linalg.norm(pts - qa, axis=1)
            ips = X @ q
            assert int(np.argmax(dists)) == int(np.argmin(ips))


class TestExactOracle:
    def test_two_points(self):
        idx, val = exact_min_ip(np.eye(2), np.array([1.0, 0.0]))
        assert (idx, val) == (1, 0.0)

    def test_single_point(self, rng):
        v = rng.standard_normal(3)
        q = rng.standard_normal(3)
        idx, val = exact_min_ip(v[None, :], q)
        assert idx == 0 and val == pytest.approx(float(v @ q))

    def test_reversed_iteration_oracle(self, rng):
        Y = rng.standard_normal((50, 4))
        q = rng.standard_normal(4)
        idx, val = exact_min_ip(Y, q)
        best_rev = min(
            ((float(Y[i] @ q), i) for i in reversed(range(50))),
            key=lambda t: (t[0], t[1]),
        )
        assert val == pytest.approx(best_rev[0])
        assert idx == best_rev[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_min_ip(np.zeros((0, 3)), np.zeros(3))


class TestWindowAlgebra:
    def test_high_regime_selected(self):
        idx = RobustMinIpIndex(np.eye(4), c=0.50005, tau=0.5, seed=0)
        assert idx.cbar_sq > 100.0

    def test_sqrt2_regime_selected(self):
        idx = RobustMinIpIndex(np.eye(4), c=0.52, tau=0.5, seed=0)
        assert 2.0 < idx.cbar_sq < 100.0

    def test_c_equal_tau_rejected(self):
        with pytest.raises(ConfigError):
            RobustMinIpIndex(np.eye(4), c=0.5, tau=0.5, seed=0)

    def test_out_of_window_rejected(self):
        with pytest.raises(ConfigError) as err:
            RobustMinIpIndex(np.eye(4), c=0.9, tau=0.5, seed=0)
        assert "8*tau" in str(err.value)

    def test_window_map_monotone(self):
        # c (1 - tau) / (c - tau) falls in c (tau fixed) and rises in tau (c fixed)
        for tau in np.linspace(0.2, 0.8, 7):
            cs = np.linspace(tau + 0.01, 0.99, 20)
            vals = [c * (1 - tau) / (c - tau) for c in cs]
            assert np.all(np.diff(vals) < 0)
        for c in np.linspace(0.3, 0.9, 7):
            taus = np.linspace(0.05, c - 0.02, 15)
            vals = [c * (1 - tau) / (c - tau) for tau in taus]
            assert np.all(np.diff(vals) > 0)


class TestRobustIndex:
    def test_two_point_forcing(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        idx = RobustMinIpIndex(pts, c=0.90005, tau=0.9, seed=3)
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(20):
            hit = idx.query(np.array([1.0, 0.0]), rng)
            if hit is not None:
                assert hit[0] == 1
                found += 1
        assert found >= 15

    def test_never_violates_bound(self, rng):
        n, d = 60, 8
        pts = rng.standard_normal((n, d))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        idx = RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=11)
        bound = idx.tau / idx.c + idx.lambda_tilde
        for _ in range(30):
            q = rng.standard_normal(d)
            q /= np.linalg.norm(q)
            hit = idx.query(q, rng)
            if hit is not None:
                assert hit[2] <= bound + 1e-12
                assert hit[2] == pytest.approx(float(pts[hit[0]] @ q), abs=1e-12)

    def test_adaptive_chain_success_rate(self, rng):
        n, d = 120, 8
        half = rng.standard_normal((n // 2, d))
        half /= np.linalg.norm(half, axis=1)[:, None]
        pts = np.vstack([half, -half])  # antipodal pairs keep the promise easy
        idx = RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=5)
        rng_q = np.random.default_rng(77)
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        successes = 0
        queries = 40
        for _ in range(queries):
            _, true_min = exact_min_ip(pts, q)
            assert true_min <= idx.tau  # promise holds by construction
            hit = idx.query(q, rng_q)
            if hit is not None:
                successes += 1
                assert hit[2] <= idx.tau / idx.c + idx.lambda_tilde
                # next query depends deterministically on the answer
                q = q - 0.5 * hit[1]
            else:
                q = q + rng_q.standard_normal(d) * 0.1
            q /= np.linalg.norm(q)
        assert successes >= 0.9 * queries

    def test_insert_delete_roundtrip(self, rng):
        pts = rng.standard_normal((10, 4))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        idx = RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=2)
        z = rng.standard_normal(4)
        z /= np.linalg.norm(z)
        pid = idx.insert(z)
        assert idx.count == 11
        idx.delete(pid)
        assert idx.count == 10
        with pytest.raises(NotFound):
            idx.delete(pid)

    @pytest.mark.parametrize(
        "bad", [[1.0], [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0]]
    )
    def test_wrong_shape_insert_changes_no_store(self, bad):
        idx = RobustMinIpIndex(np.eye(3), c=0.505, tau=0.5, seed=2)
        with pytest.raises(DimensionMismatch):
            idx.insert(bad)  # the shape is checked first, whatever the norm
        for store in [idx._points, *idx._stores]:
            assert len(store) == 3 and store.next_id == 3
        assert idx.insert([0.0, 1.0, 0.0]) == 3

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0]])
    def test_wrong_length_query_is_refused_before_sampling(self, bad):
        idx = RobustMinIpIndex(np.eye(3), c=0.505, tau=0.5, seed=2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DimensionMismatch, match="dim 3"):
            idx.query(bad, rng)
        assert rng.bit_generator.state == state
        assert idx._batteries == [None] * len(idx.ensemble)

    def test_descriptor_replay(self, rng):
        pts = rng.standard_normal((12, 4))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        kwargs = dict(c=0.505, tau=0.5, seed=9)
        a = RobustMinIpIndex(pts, **kwargs)
        b = RobustMinIpIndex(pts, **kwargs)
        assert a.descriptor() == b.descriptor()
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        ra = a.query(q, np.random.default_rng(1))
        rb = b.query(q, np.random.default_rng(1))
        assert (ra is None) == (rb is None)
        if ra is not None:
            assert ra[0] == rb[0]


# two unit vectors in R^4: drawing points from them makes coincident sets common
POOL = np.array([[0.5, 0.5, 0.5, 0.5], [0.6, 0.0, 0.8, 0.0]])


@settings(max_examples=20, deadline=None)
@given(
    initial=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=10),
)
@example(initial=[0, 0, 0, 1], ops=[(False, 3), (False, 0), (True, 0)])  # rows end [2, 1, 4]
def test_shared_store_tracks_live_points(initial, ops):
    """Random inserts and deletes: each sketch's one store holds exactly the
    live points, every replica lists each live id once with its key (retired
    ids may remain), and no query answers with a deleted id; coincident
    points answer with the lowest id."""
    idx = RobustMinIpIndex(POOL[initial], c=0.505, tau=0.5, seed=4)
    live = {pid: POOL[i] for pid, i in enumerate(initial)}
    retired = set()
    rng = np.random.default_rng(0)
    for insert, k in ops:
        if insert or len(live) == 1:
            pid = idx.insert(POOL[k % 2])
            assert pid > max(live)
            live[pid] = POOL[k % 2]
        else:
            victim = sorted(live)[k % len(live)]
            idx.delete(victim)
            del live[victim]
            retired.add(victim)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        hit = idx.query(x, rng)
        assert hit is None or hit[0] in live
        for j, (sketch, store) in enumerate(zip(idx.ensemble.sketches, idx._stores)):
            battery = idx.battery(j)  # builds it if no query has sampled sketch j yet
            assert sorted(store.ids.tolist()) == sorted(live)
            P = np.stack([sketch.apply_flat(p) for p in live.values()])
            assert store.boxwidth == float((P.max(axis=0) - P.min(axis=0)).max())
            xq = sketch.apply_flat(x)
            assert battery.store is store
            dfn = battery._dfn
            assert dfn.store is store and dfn.replicas == idx.kappa
            for row, (keys, ids) in enumerate(zip(dfn.keys, dfn.ids, strict=True)):
                direction = dfn.directions[row // dfn.ell, row % dfn.ell]
                pairs = list(zip(keys.tolist(), ids.tolist()))
                listed = [(pid, key) for key, pid in pairs if pid in live]
                assert sorted(pid for pid, _ in listed) == sorted(live)
                for pid, key in listed:
                    assert abs(key - direction @ store[pid]) <= 1e-12
                assert {pid for _, pid in pairs} - live.keys() <= retired
            hits = battery.query(xq)
            assert hits is None or set(hits.tolist()) <= live.keys()
            if store.boxwidth == 0.0:
                assert hits.tolist() == [min(live)] * idx.kappa


def unit_rows(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def same_answer(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]


# POOL's coincident rows give equal keys, so pid order decides ties
@settings(max_examples=25, deadline=None)
@given(
    initial=st.lists(st.integers(0, 7), min_size=1, max_size=6),
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "query"]), st.integers(0, 7)),
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_lazy_batteries_answer_like_forced_ones(initial, ops, seed):
    """An index that builds each battery on its first query answers every
    query bit for bit like one whose batteries were all built at once."""
    rng = np.random.default_rng(seed)
    pool = np.vstack([POOL, unit_rows(rng, 6, 4)])
    lazy = RobustMinIpIndex(pool[initial], c=0.505, tau=0.5, seed=seed)
    forced = RobustMinIpIndex(pool[initial], c=0.505, tau=0.5, seed=seed)
    for j in range(len(forced.ensemble)):
        forced.battery(j)
    live = list(range(len(initial)))
    rng_lazy, rng_forced = np.random.default_rng(seed), np.random.default_rng(seed)
    for op, k in ops:
        if op == "insert" or (op == "delete" and len(live) == 1):
            pid = lazy.insert(pool[k])
            assert forced.insert(pool[k]) == pid
            live.append(pid)
        elif op == "delete":
            pid = live.pop(k % len(live))
            lazy.delete(pid)
            forced.delete(pid)
        else:
            x = unit_rows(rng, 1, 4)[0]
            assert same_answer(lazy.query(x, rng_lazy), forced.query(x, rng_forced))
    x = unit_rows(rng, 1, 4)[0]
    assert same_answer(lazy.query(x, rng_lazy), forced.query(x, rng_forced))


def test_two_indexes_queried_interleaved_answer_as_each_alone(rng):
    """Batteries built and queried in turn over two indexes draw no shared
    generator state: each answers as a twin of it queried alone does."""
    pts = unit_rows(rng, 24, 4)
    queries = unit_rows(rng, 12, 4)
    pair = [RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=seed) for seed in (3, 4)]
    rngs = [np.random.default_rng(seed) for seed in (3, 4)]
    interleaved = [[], []]
    for x in queries:
        for side in (0, 1):
            interleaved[side].append(pair[side].query(x, rngs[side]))
    for side, seed in enumerate((3, 4)):
        alone = RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=seed)
        alone_rng = np.random.default_rng(seed)
        for x, got in zip(queries, interleaved[side], strict=True):
            assert same_answer(got, alone.query(x, alone_rng))
        assert any(got is not None for got in interleaved[side])


def test_a_query_samples_one_sketch_at_the_index_size():
    """_sample_count(SKETCH_DIM, k) = min(k, max(1, ceil(SCALE ln 16))) = 1
    for every ensemble size k: at the index's one size no answer combines
    sampled sketches (see the module docstring)."""
    assert {minip._sample_count(minip.SKETCH_DIM, k) for k in range(1, 201)} == {1}


def test_a_query_builds_kappa_replicas_per_new_sketch(monkeypatch, rng):
    built = []  # (store, replica count) of every AfnStructure built

    def counting(store, cbar, seeds):
        built.append((store, len(seeds)))
        return afn_structure(store, cbar, seeds)

    afn_structure = minip.AfnStructure
    monkeypatch.setattr(minip, "AfnStructure", counting)
    idx = RobustMinIpIndex(unit_rows(rng, 12, 4), c=0.505, tau=0.5, seed=3)
    assert built == []
    k, count = len(idx.ensemble), minip._sample_count(minip.SKETCH_DIM, len(idx.ensemble))
    qrng = np.random.default_rng(1)
    seen = set()
    for _ in range(60):
        sampled = set(idx.ensemble.sample(count, copy.deepcopy(qrng)).tolist())
        new = sorted(sampled - seen)
        before = len(built)
        idx.query(unit_rows(rng, 1, 4)[0], qrng)
        # one battery of kappa replicas per newly sampled sketch, none for one sampled before
        assert built[before:] == [(idx._stores[j], idx.kappa) for j in new]
        seen |= sampled
    assert seen == set(range(k)) and len(built) == k


def test_battery_built_after_deletes_keeps_build_time_sizes(rng):
    pts = unit_rows(rng, 40, 4)
    late = RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=6)
    early = RobustMinIpIndex(pts, c=0.505, tau=0.5, seed=6)
    early_battery = early.battery(0)
    for pid in range(30):
        late.delete(pid)
        early.delete(pid)
    assert len(late._stores[0]) == 10
    da, db = late.battery(0)._dfn, early_battery._dfn
    assert da.replicas == db.replicas == late.kappa
    assert da.n0 == db.n0 == 40
    assert da.ell == db.ell
    assert da.t == db.t == solve_threshold(40) != solve_threshold(10)
    assert np.array_equal(da.directions, db.directions)


@pytest.mark.parametrize("shape", [{"sketch_dim": 8}, {"sketch_sparsity": 2}])
def test_desk_refuses_any_other_sketch_shape(shape):
    with pytest.raises(ConfigError, match="16 rows in 4 blocks"):
        MinIpConfig.desk(**shape)


@pytest.mark.parametrize(
    "transform, arg",
    [(minip_transform_dataset, np.ones((2, 3))), (minip_transform_query, np.ones(3))],
    ids=["dataset", "query"],
)
def test_nan_scale_is_refused(transform, arg):
    # nan <= 0 is False: a NaN scale would return NaN rows
    with pytest.raises(PreconditionViolation, match="must be positive"):
        transform(arg, math.nan)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.floats(0.0, 1.0))
@example(1e-9, 1.0 - 1e-12)  # the window's corner: the least cbar^2 there is 2(1-eps)^2/(1-2eps)
@example(0.99, 1.0 - 1e-12)  # near the largest tau whose window is not empty
def test_every_c_the_window_accepts_gives_cbar_sq_above_2(tau, frac):
    """c drawn across (tau, minip_window(tau, EPS)): a (c, tau) the window
    accepts derives an AFN ratio whose square exceeds 2, so cbar > 1 holds
    with no check of its own."""
    idx = RobustMinIpIndex.__new__(RobustMinIpIndex)
    idx.tau = tau
    idx.c = tau + frac * (minip.minip_window(tau, RobustMinIpIndex.EPS) - tau)
    try:
        idx._validate_window()
    except ConfigError:
        assume(False)  # an empty window, or c rounded onto one of its ends
    assert idx.cbar_sq > 2.0


def unit_vector(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def near_points(x, n, spread, seed):
    """n unit vectors within about `spread` of the unit vector x."""
    pts = x + spread * np.random.default_rng(seed).standard_normal((n, len(x)))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def test_a_sampled_battery_without_a_hit_answers_none(monkeypatch):
    """A query samples one battery at this size; when it answers None the
    query answers None, having drawn what an answered query draws."""
    half = near_points(np.eye(4)[0], 10, 0.5, seed=1)
    idx = RobustMinIpIndex(np.vstack([half, -half]), c=0.505, tau=0.5, seed=5)
    x = unit_vector([1.0, 0.2, 0.0, 0.0])
    answered = np.random.default_rng(0)
    assert idx.query(x, answered) is not None
    missed = np.random.default_rng(0)
    monkeypatch.setattr(AfnStructure, "query", lambda battery, q: None)
    assert idx.query(x, missed) is None
    assert missed.bit_generator.state == answered.bit_generator.state


def test_a_best_hit_above_the_bound_answers_none(monkeypatch):
    """Every point is close to the query, so every hit's inner product exceeds
    tau/c + lambda_tilde: the batteries answer, and the query answers None."""
    x = unit_vector([1.0, 1.0, 1.0, 1.0])
    pts = near_points(x, 8, 0.05, seed=2)
    idx = RobustMinIpIndex(pts, c=0.11, tau=0.1, seed=3)
    bound = idx.tau / idx.c + idx.lambda_tilde
    assert bound < (pts @ x).min()
    real = AfnStructure.query
    hits = []

    def recorded(battery, q):
        hits.append(real(battery, q))
        return hits[-1]

    monkeypatch.setattr(AfnStructure, "query", recorded)
    assert idx.query(x, np.random.default_rng(0)) is None
    assert any(h is not None for h in hits)

