"""Sorted lists, the shared point store, the fixed-radius projection structure,
and furthest neighbor."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.afn import AfnStructure, DfnStructure, gaussian_matrix, solve_threshold
from sparsekit.errors import NotFound
from sparsekit.pointstore import PointStore
from sparsekit.sortedlist import SortedKeyList


def store_of(pairs):
    """A PointStore of (pid, point) pairs whose pids are 0..n-1 in order."""
    assert [pid for pid, _ in pairs] == list(range(len(pairs)))
    return PointStore(np.stack([p for _, p in pairs]))


class TestSortedKeyList:
    def test_init_and_max(self):
        lst = SortedKeyList([(1.0, "a"), (3.0, "b")])
        assert list(lst) == [(1.0, "a"), (3.0, "b")]  # the max is last

    def test_search_leq(self):
        lst = SortedKeyList([(1.0, "a"), (3.0, "b")])
        assert list(lst.search_leq(2.0)) == [(1.0, "a")]
        assert list(lst.search_geq(2.0)) == [(3.0, "b")]

    def test_delete_absent_raises(self):
        lst = SortedKeyList([(1.0, "a")])
        with pytest.raises(NotFound):
            lst.delete(1.0, "b")

    def test_random_ops_against_reference_array(self, rng):
        lst = SortedKeyList()
        reference = []
        for step in range(10**4):
            op = rng.random()
            if op < 0.5 or not reference:
                key = float(rng.integers(-50, 50))
                payload = int(rng.integers(0, 10**6))
                lst.insert(key, payload)
                reference.append((key, payload))
                reference.sort()
            elif op < 0.75:
                victim = reference.pop(int(rng.integers(0, len(reference))))
                lst.delete(*victim)
            else:
                t = float(rng.integers(-55, 55))
                assert list(lst.search_leq(t)) == [p for p in reference if p[0] <= t]
                assert list(lst.search_geq(t)) == [p for p in reference if p[0] >= t]
        if reference:
            assert len(lst) == len(reference)

    # few distinct keys, so equal keys with different payloads are common, and
    # thresholds fall both on keys and between them
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "leq", "geq"]),
                st.integers(-4, 4).map(lambda k: k / 2.0),
                st.integers(0, 50),
            ),
            max_size=60,
        )
    )
    def test_matches_sorted_python_list(self, ops):
        lst, reference = SortedKeyList(), []
        for payload, (op, key, pick) in enumerate(ops):
            if op == "insert":
                lst.insert(key, payload)
                reference.append((key, payload))
                reference.sort()
            elif op == "delete" and reference:
                lst.delete(*reference.pop(pick % len(reference)))
            elif op == "leq":
                assert list(lst.search_leq(key)) == [p for p in reference if p[0] <= key]
            elif op == "geq":
                assert list(lst.search_geq(key)) == [p for p in reference if p[0] >= key]
            assert list(lst) == reference and len(lst) == len(reference)


class TestThresholdSolver:
    def test_residual_for_n2(self):
        t = solve_threshold(2)
        assert abs(np.exp(t * t / 2.0) / t - 4.0) <= 1e-9

    def test_residuals_across_n(self):
        for n in (1, 2, 10, 1000, 10**6):
            t = solve_threshold(n)
            assert abs(np.exp(t * t / 2.0) / t - 2.0 * n) <= 1e-8 * max(1.0, 2.0 * n)
            assert t >= 1.0


class TestGaussianMatrix:
    def test_reproducible(self):
        a = gaussian_matrix(5, 7, seed=13)
        b = gaussian_matrix(5, 7, seed=13)
        assert np.array_equal(a, b)

    def test_moments(self):
        g = gaussian_matrix(200, 200, seed=1).ravel()
        assert abs(g.mean()) <= 0.02
        assert abs(g.std() - 1.0) <= 0.02


class TestDfn:
    def test_single_point_in_every_list(self):
        dfn = DfnStructure(PointStore([[1.0, 2.0]]), cbar=2.0, seed=3)
        for i in range(dfn.ell):
            assert len(dfn.projection_list(i)) == 1

    def test_projection_fidelity(self, rng):
        pts = [(i, rng.standard_normal(6)) for i in range(40)]
        dfn = DfnStructure(store_of(pts), cbar=2.0, seed=5)
        for i in range(dfn.ell):
            stored = sorted(dfn.projection_list(i))
            expected = sorted(
                (float(dfn.directions[i] @ p), pid) for pid, p in pts
            )
            for (k1, p1), (k2, p2) in zip(stored, expected):
                assert p1 == p2 and abs(k1 - k2) <= 1e-12

    def test_projection_fidelity_after_updates(self, rng):
        pts = [(i, rng.standard_normal(4)) for i in range(20)]
        store = store_of(pts)
        dfn = DfnStructure(store, cbar=2.0, seed=8)
        live = dict(pts)
        for _ in range(200):
            if rng.random() < 0.5 and live:
                pid = int(rng.choice(list(live)))
                store.remove(pid)
                del live[pid]
            else:
                p = rng.standard_normal(4)
                pid = store.add(p)
                dfn.insert(pid)
                live[pid] = p
        for i in range(dfn.ell):
            # every live id is listed with its key; retired ids may remain
            stored = sorted(pair for pair in dfn.projection_list(i) if pair[1] in store)
            expected = sorted((float(dfn.directions[i] @ p), pid) for pid, p in live.items())
            assert len(stored) == len(expected)
            for (k1, p1), (k2, p2) in zip(stored, expected):
                assert p1 == p2 and abs(k1 - k2) <= 1e-12

    def test_forced_answer_when_one_point_qualifies(self):
        pts = [(0, np.array([0.0, 0.0])), (1, np.array([10.0, 0.0]))]
        hits = 0
        for seed in range(100):
            dfn = DfnStructure(store_of(pts), cbar=2.0, seed=seed)
            hit = dfn.query(np.array([0.0, 0.0]), r=5.0)
            if hit is not None:
                assert hit[0] == 1  # only (10, 0) is at distance >= 2.5
                hits += 1
        assert hits >= 50  # success with constant probability per build

    def test_all_points_too_close_always_fail(self, rng):
        pts = [(i, 0.01 * rng.standard_normal(3)) for i in range(20)]
        dfn = DfnStructure(store_of(pts), cbar=2.0, seed=4)
        q = np.zeros(3)
        assert dfn.query(q, r=10.0) is None

    def test_soundness_postcheck(self, rng):
        pts = [(i, rng.standard_normal(5)) for i in range(50)]
        dfn = DfnStructure(store_of(pts), cbar=1.5, seed=9)
        for _ in range(50):
            q = rng.standard_normal(5)
            r = float(rng.uniform(0.5, 4.0))
            hit = dfn.query(q, r)
            if hit is not None:
                assert np.linalg.norm(hit[1] - q) >= r / dfn.cbar

    # few points and a small radius, so the 2 ell + 1 candidate cap binds
    @settings(max_examples=60, deadline=None)
    @given(
        n0=st.integers(1, 12),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=30),
        seed=st.integers(0, 2**16),
    )
    def test_query_skips_removed_ids_like_lists_of_live_pairs(self, n0, ops, seed):
        rng = np.random.default_rng(seed)
        store = PointStore(rng.standard_normal((n0, 3)))
        dfn = DfnStructure(store, cbar=2.0, seed=seed)
        removed = set()
        for remove, pick in ops:
            if remove and len(store):
                pid = int(store.ids[pick % len(store)])
                store.remove(pid)
                removed.add(pid)
            else:
                dfn.insert(store.add(rng.standard_normal(3)))
            live_only = copy.copy(dfn)
            live_only._lists = [
                SortedKeyList(pair for pair in lst if pair[1] in store) for lst in dfn._lists
            ]
            q = rng.standard_normal(3)
            for r in (0.05, 0.5, 2.0):
                hit, expected = dfn.query(q, r), live_only.query(q, r)
                assert (hit is None) == (expected is None)
                if hit is not None:
                    assert hit[0] == expected[0] and hit[0] not in removed
                    assert np.array_equal(hit[1], expected[1])

    @settings(max_examples=40, deadline=None)
    @given(
        n0=st.integers(1, 12),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=20),
        seed=st.integers(0, 2**16),
    )
    def test_late_build_lists_the_pairs_of_an_early_one(self, n0, ops, seed):
        rng = np.random.default_rng(seed)
        store = PointStore(rng.standard_normal((n0, 3)))
        early = DfnStructure(store, cbar=2.0, seed=seed)
        for remove, pick in ops:
            if remove and len(store) > 1:
                store.remove(int(store.ids[pick % len(store)]))
            else:
                early.insert(store.add(rng.standard_normal(3)))
        late = DfnStructure(store, cbar=2.0, seed=seed)
        assert (late.n0, late.ell, late.t) == (early.n0, early.ell, early.t)
        for i in range(early.ell):
            # bit-equal keys; the early list may also hold ids added and removed since
            live_early = [pair for pair in early.projection_list(i) if pair[1] in store]
            live_late = [pair for pair in late.projection_list(i) if pair[1] in store]
            assert live_late == live_early
        q = rng.standard_normal(3)
        for r in (0.05, 0.5, 2.0):
            a, b = early.query(q, r), late.query(q, r)
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_candidate_cap_spans_directions(self, rng):
        # 200 points at cbar 2 give ell = 2, so 2 ell + 1 = 5 candidates are
        # collected across both directions' lists, live ids only, in list order
        store = PointStore(rng.standard_normal((200, 3)))
        for pid in range(0, 60, 3):
            store.remove(pid)
        dfn = DfnStructure(store, cbar=2.0, seed=11)
        assert dfn.ell == 2
        cap = 2 * dfn.ell + 1
        spanned = False
        for _ in range(40):
            q = rng.standard_normal(3)
            r = float(rng.uniform(0.5, 5.0))
            T = r * dfn.t / dfn.cbar
            per_direction = []
            for i, center in enumerate(dfn.directions @ q):
                lst = dfn.projection_list(i)
                pairs = [*lst.search_leq(center - T), *lst.search_geq(center + T)]
                per_direction.append([pid for _, pid in pairs if pid in store])
            expected = list(dict.fromkeys(per_direction[0] + per_direction[1]))[:cap]
            spanned |= len(expected) == cap and len(set(per_direction[0])) < cap
            dist = {}
            hit = dfn.query(q, r, dist)
            assert list(dist) == expected
            far = [pid for pid in expected if dist[pid] >= r / dfn.cbar]
            if far:
                assert dist[hit[0]] == max(dist[pid] for pid in far)
            else:
                assert hit is None
        assert spanned  # some query filled the cap from both directions

    def test_shared_distance_table_matches_fresh_queries(self, rng):
        pts = [(i, rng.standard_normal(4)) for i in range(30)]
        dfn = DfnStructure(store_of(pts), cbar=1.5, seed=2)
        q = rng.standard_normal(4)
        dist = {}
        for r in (0.1, 1.0, 3.0):
            hit, fresh = dfn.query(q, r, dist), dfn.query(q, r)
            assert (hit is None) == (fresh is None)
            if hit is not None:
                assert hit[0] == fresh[0] and np.array_equal(hit[1], fresh[1])
        assert dist
        for pid, d in dist.items():
            assert d == float(np.linalg.norm(dict(pts)[pid] - q))


class TestPointStore:
    def test_boxwidth_simple(self):
        store = PointStore([[0.0, 0.0], [1.0, 2.0]])
        assert store.boxwidth == pytest.approx(2.0)

    def test_boxwidth_single_point(self):
        store = PointStore([[3.0, 4.0]])
        assert store.boxwidth == 0.0
        pid, p = AfnStructure(store, 2.0, seed=0).query(np.array([0.0, 0.0]))
        assert pid == 0

    def test_boxwidth_random_against_scan(self, rng):
        pts = [(i, rng.standard_normal(5)) for i in range(60)]
        store = store_of(pts)
        arr = np.stack([p for _, p in pts])
        assert store.boxwidth == pytest.approx(
            float((arr.max(axis=0) - arr.min(axis=0)).max()), abs=1e-12
        )
        store.remove(0)
        arr = arr[1:]
        assert store.boxwidth == pytest.approx(
            float((arr.max(axis=0) - arr.min(axis=0)).max()), abs=1e-12
        )

    def test_reads_copy_and_survive_swap_remove(self):
        store = PointStore([[0.0], [1.0], [2.0]])
        p = store[2]
        store.remove(0)  # the last row moves into slot 0
        assert store.add([5.0]) == 3
        assert p[0] == 2.0 and store[2][0] == 2.0 and store[3][0] == 5.0
        assert sorted(store.ids.tolist()) == [1, 2, 3] and store.lowest_id() == 1
        assert 3 in store and 0 not in store
        with pytest.raises(NotFound):
            store[0]
        assert store.add([6.0]) == 4  # the removed id 0 is never reissued


class TestAfn:
    def test_forced_two_point_instance(self):
        pts = [(0, np.zeros(4)), (1, np.array([1.0, 0.0, 0.0, 0.0]))]
        successes = 0
        for seed in range(40):
            afn = AfnStructure(store_of(pts), cbar=2.0, seed=seed)
            hit = afn.query(np.zeros(4))
            if hit is not None:
                assert hit[0] == 1
                successes += 1
        assert successes >= 20

    def test_quality_and_success_rate_on_sphere(self, rng):
        # 200 points on S^7, approximation factor cbar + delta
        n, d = 200, 8
        cbar, delta = 2.0, 0.1
        total, ok, within = 0, 0, 0
        for seed in range(10):
            pts_arr = rng.standard_normal((n, d))
            pts_arr /= np.linalg.norm(pts_arr, axis=1)[:, None]
            afn = AfnStructure(PointStore(pts_arr), cbar, seed=seed)
            for _ in range(20):
                q = rng.standard_normal(d)
                q /= np.linalg.norm(q)
                exact = np.linalg.norm(pts_arr - q, axis=1).max()
                total += 1
                hit = afn.query(q)
                if hit is None:
                    continue
                ok += 1
                dist = np.linalg.norm(hit[1] - q)
                if dist >= exact / (cbar + delta) - 1e-12:
                    within += 1
        assert ok / total >= 0.9
        assert within == ok  # every success within the stated factor

    def test_far_query_any_point_fine(self, rng):
        pts_arr = rng.standard_normal((50, 4))
        afn = AfnStructure(PointStore(pts_arr), 2.0, seed=6)
        center = pts_arr.mean(axis=0)
        q = center + 1000.0 * np.ones(4)
        hit = afn.query(q)
        assert hit is not None
        exact = np.linalg.norm(pts_arr - q, axis=1).max()
        assert np.linalg.norm(hit[1] - q) >= exact / 1.1  # (1 + eps) regime
