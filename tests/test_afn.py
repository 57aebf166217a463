"""Sorted lists, the shared point store, the fixed-radius projection structure,
and furthest neighbor, each structure a battery checked replica by replica
against a one-replica oracle."""

import copy
import math
from bisect import bisect_left, bisect_right, insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsekit.afn import (
    AfnStructure,
    DfnStructure,
    _direction_count,
    _search_rounds,
    gaussian_matrix,
    philox_keys,
    solve_threshold,
)
from sparsekit.errors import DimensionMismatch, NotFound, PreconditionViolation
from sparsekit.pointstore import PointStore
from sparsekit.sortedlist import SortedKeyList


def keys_of(seeds):
    """One Philox key per int seed: row i keys the stream np.random.Philox(seeds[i]) draws."""
    return np.concatenate([philox_keys(seed) for seed in seeds])


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
        a = gaussian_matrix(5, 7, philox_keys(13))
        b = gaussian_matrix(5, 7, philox_keys(13))
        assert a.shape == (1, 5, 7) and np.array_equal(a, b)

    def test_moments(self):
        g = gaussian_matrix(200, 200, philox_keys(1)).ravel()
        assert abs(g.mean()) <= 0.02
        assert abs(g.std() - 1.0) <= 0.02

    def test_each_replica_draws_what_one_generator_draws(self):
        seeds = np.random.SeedSequence(3).spawn(5)
        stacked = gaussian_matrix(2, 6, philox_keys(3, np.arange(5)))
        for g, seed in zip(stacked, seeds, strict=True):
            assert np.array_equal(g, oracle_gaussian(2, 6, seed))


    # keys of SeedSequence(e, spawn_key=(r,)) for r = 0..count-1, against the
    # Generator.random draws of each child's own Philox stream
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 7),
        count=st.integers(1, 6),
        entropy=st.integers(0, 2**70),
    )
    def test_rows_are_the_streams_of_their_seed_sequences(self, rows, cols, count, entropy):
        stacked = gaussian_matrix(rows, cols, philox_keys(entropy, np.arange(count)))
        assert stacked.shape == (count, rows, cols)
        for r, g in enumerate(stacked):
            child = np.random.SeedSequence(entropy, spawn_key=(r,))
            assert np.array_equal(g, oracle_gaussian(rows, cols, child))

    @pytest.mark.parametrize("n", [5, 6])  # an odd and an even rows * cols
    def test_raw_words_are_philox_random_raw(self, n):
        """(raw >> 11) * 2^-53 of the first 2n raw words, as Box-Muller reads them."""
        seq = [np.random.SeedSequence(9, spawn_key=(2, r, 0)) for r in range(3)]
        stacked = gaussian_matrix(1, n, philox_keys(9, 2, np.arange(3), 0))
        for g, child in zip(stacked, seq, strict=True):
            u = (np.random.Philox(child).random_raw(2 * n) >> 11) * 2.0**-53
            want = np.sqrt(-2.0 * np.log(1.0 - u[:n])) * np.cos(2.0 * np.pi * u[n:])
            assert np.array_equal(g.ravel(), want)


#: spawn words, with both ends of the 32-bit range drawn often
SPAWN_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))
#: entropy as SeedSequence takes it: an int of any width, or a tuple of them
ENTROPY = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 11]),
    st.integers(0, 2**160),
    st.tuples(*[st.integers(0, 2**40)] * 2),
    st.lists(st.integers(0, 2**70), max_size=6).map(tuple),
)


class TestPhiloxKeys:
    @settings(max_examples=300, deadline=None)
    @given(entropy=ENTROPY, spawn=st.lists(SPAWN_WORD, max_size=5))
    def test_a_key_is_the_seed_sequence_state(self, entropy, spawn):
        seq = np.random.SeedSequence(entropy, spawn_key=spawn)
        keys = philox_keys(entropy, *spawn)
        assert keys.shape == (1, 2) and keys.dtype == np.uint64
        assert np.array_equal(keys[0], seq.generate_state(2, np.uint64))
        # the key Philox takes from that SeedSequence: the same stream
        want = np.random.Philox(seq).random_raw(9)
        assert np.array_equal(np.random.Philox(key=keys[0]).random_raw(9), want)

    @settings(max_examples=100, deadline=None)
    @given(
        entropy=ENTROPY,
        head=st.lists(SPAWN_WORD, max_size=2),
        column=st.lists(SPAWN_WORD, min_size=1, max_size=8),
        tail=st.lists(SPAWN_WORD, max_size=2),
    )
    def test_array_words_broadcast_row_by_row(self, entropy, head, column, tail):
        keys = philox_keys(entropy, *head, np.array(column), *tail)
        assert keys.shape == (len(column), 2)
        for key, word in zip(keys, column, strict=True):
            seq = np.random.SeedSequence(entropy, spawn_key=(*head, word, *tail))
            assert np.array_equal(key, seq.generate_state(2, np.uint64))

    def test_entropy_from_a_fresh_seed_sequence(self):
        entropy = np.random.SeedSequence().entropy  # 128 random bits
        keys = philox_keys(entropy, np.arange(4), 7)
        for r, key in enumerate(keys):
            seq = np.random.SeedSequence(entropy, spawn_key=(r, 7))
            assert np.array_equal(key, seq.generate_state(2, np.uint64))

    @pytest.mark.parametrize(
        "entropy, spawn",
        [
            (-1, ()),
            ((3, -2), ()),
            (5, (-1,)),
            (5, (2**32,)),
            (5, (np.array([1, 2**32]),)),
            (5, (0.5,)),
            (5, (np.array([3, -1]),)),
            (5, (np.int64(-1),)),
            (5, (np.uint64(2**32),)),
            (5, (3, np.arange(4), np.int32(-2))),
            (5, (True,)),
        ],
    )
    def test_a_negative_entropy_or_a_word_outside_32_bits_is_refused(self, entropy, spawn):
        with pytest.raises(ValueError):
            philox_keys(entropy, *spawn)

    def test_numpy_int_and_zero_dim_words_are_int_words(self):
        top = np.uint32(2**32 - 1)
        keys = philox_keys(5, np.int64(3), np.array(7), top, np.arange(3), np.uint8(4))
        for r, key in enumerate(keys):
            seq = np.random.SeedSequence(5, spawn_key=(3, 7, 2**32 - 1, r, 4))
            assert np.array_equal(key, seq.generate_state(2, np.uint64))

    @pytest.mark.parametrize("entropy", [["0x10"], "5", (1, b"2")])
    def test_a_str_or_bytes_in_the_entropy_is_refused(self, entropy):
        # numpy's SeedSequence reads ["0x10"] as 16; the keys refuse it before hashing
        with pytest.raises(TypeError):
            philox_keys(entropy, np.arange(2))


def oracle_gaussian(rows, cols, seed):
    """Box-Muller over two Generator.random calls on one Philox stream."""
    gen = np.random.Generator(np.random.Philox(seed))
    n = rows * cols
    u1 = 1.0 - gen.random(n)
    u2 = gen.random(n)
    return (np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)).reshape(rows, cols)


class OracleDfn:
    """One DFN replica built and queried one pair at a time: a plain sorted
    list of (key, id) per direction, searched with bisect, and a
    per-candidate distance post-check.  It reads the store as DfnStructure
    does."""

    def __init__(self, store, cbar, seed):
        base = store.initial_points
        self.store, self.cbar = store, float(cbar)
        self.ell = _direction_count(len(base), self.cbar)
        self.t = solve_threshold(len(base))
        self.directions = oracle_gaussian(self.ell, store.dim, seed)
        keys = (self.directions @ base.T).tolist()
        self.lists = [sorted(zip(row, range(len(base)))) for row in keys]
        ids = store.ids
        for pid in sorted(ids[ids >= len(base)].tolist()):
            self.insert(pid)

    def insert(self, pid):
        for key, lst in zip((self.directions @ self.store[pid]).tolist(), self.lists):
            insort(lst, (key, pid))

    def query(self, q, r):
        """The pid the replica answers at radius r, or None."""
        T = r * self.t / self.cbar
        cap = 2 * self.ell + 1
        seen = {}
        for lst, center in zip(self.lists, (self.directions @ q).tolist()):
            # ids are >= 0, so (x, inf) follows and (x, -1) precedes every pair of key x
            below = lst[: bisect_right(lst, (center - T, math.inf))]
            above = lst[bisect_left(lst, (center + T, -1)) :]
            for pairs in (below, above):
                for key, pid in pairs:
                    if len(seen) >= cap:
                        break
                    if pid in self.store:
                        seen.setdefault(pid, key)
            if len(seen) >= cap:
                break
        best, best_dist = None, r / self.cbar
        for pid in seen:
            d = float(np.linalg.norm(self.store[pid] - q))
            if d >= best_dist:
                best, best_dist = pid, d
        return best


class OracleAfn:
    """One AFN replica: radius bisection over one OracleDfn, seeded as
    AfnStructure seeds its replicas."""

    def __init__(self, store, cbar, seed):
        self.store, self.dim = store, store.dim
        self.eps = max(float(cbar) - 1.0, 1e-9)
        self.rounds = _search_rounds(self.dim, self.eps)
        self.dfn = OracleDfn(store, cbar, seed)

    def query(self, q):
        bw = self.store.boxwidth
        if bw == 0.0:
            return self.store.lowest_id()
        lo, hi = bw / 2.0, math.sqrt(self.dim) / self.eps * bw
        best = self.dfn.query(q, lo)
        for _ in range(self.rounds):
            mid = 0.5 * (lo + hi)
            hit = self.dfn.query(q, mid)
            if hit is not None:
                best, lo = hit, mid
            else:
                hi = mid
        return best


def rows_of(dfn, store):
    """Each row's live (key, id) pairs, in the structure's order."""
    return [
        [(k, pid) for k, pid in zip(keys.tolist(), ids.tolist()) if pid in store]
        for keys, ids in zip(dfn.keys, dfn.ids, strict=True)
    ]


# a pool of three points, so coincident points (equal keys, zero boxwidth) are common
POOL = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 2.0], [0.3, 0.9, -1.2]])


class TestBatteryAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        initial=st.lists(st.integers(0, 2), min_size=1, max_size=14),
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "delete", "query"]), st.integers(0, 63)),
            max_size=16,
        ),
        cbar=st.sampled_from([1.1, 1.5, 2.0]),
        replicas=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_answers_replica_by_replica_like_the_oracle(
        self, initial, ops, cbar, replicas, seed
    ):
        rng = np.random.default_rng(seed)
        pool = np.vstack([POOL, rng.standard_normal((3, 3))])
        store = PointStore(pool[initial])
        seeds = [seed + i for i in range(replicas)]
        afn = AfnStructure(store, cbar, keys_of(seeds))
        oracles = [OracleAfn(store, cbar, s) for s in seeds]
        for op, k in ops + [("query", 0)]:
            if op == "insert" or (op == "delete" and len(store) == 1):
                pid = store.add(pool[k % len(pool)])
                afn.insert(pid)
                for oracle in oracles:
                    oracle.dfn.insert(pid)
            elif op == "delete":
                store.remove(int(store.ids[k % len(store)]))
            else:
                q = rng.standard_normal(3)
                expected = [o.query(q) for o in oracles]
                expected = [pid for pid in expected if pid is not None]
                hits = afn.query(q)
                assert (hits is None) == (not expected)
                if hits is not None:
                    assert hits.tolist() == expected
                late = AfnStructure(store, cbar, keys_of(seeds)).query(q)  # built after the updates
                assert (late is None) == (hits is None)
                if late is not None:
                    assert late.tolist() == hits.tolist()
                if store.boxwidth == 0.0:
                    assert hits.tolist() == [store.lowest_id()] * replicas
                    continue
                dfn, probe = afn._dfn, afn._dfn.probe(q)
                for r in (0.05, 0.5, 2.0):
                    want = [o.dfn.query(q, r) for o in oracles]
                    got = dfn.query(q, r, probe).tolist()
                    assert got == [-1 if pid is None else pid for pid in want]

    def test_distinct_ids_across_directions_at_ell_2_and_3(self, rng):
        # ell >= 2: an id listed far in several directions counts once
        for n, cbar in ((12, 1.1), (24, 1.1), (40, 1.5)):
            store = PointStore(rng.standard_normal((n, 3)))
            for pid in range(0, n, 5):
                store.remove(pid)
            seeds = list(range(6))
            dfn = DfnStructure(store, cbar, keys_of(seeds))
            assert dfn.ell >= 2
            oracles = [OracleDfn(store, cbar, s) for s in seeds]
            for _ in range(20):
                q = rng.standard_normal(3)
                radii = rng.uniform(0.05, 3.0, len(seeds))
                want = [o.query(q, r) for o, r in zip(oracles, radii)]
                assert dfn.query(q, radii).tolist() == [-1 if p is None else p for p in want]

    def test_zero_boxwidth_every_replica_answers_the_lowest_id(self):
        store = PointStore(np.tile(POOL[1], (4, 1)))
        store.remove(0)
        afn = AfnStructure(store, 1.5, keys_of(range(3)))
        oracles = [OracleAfn(store, 1.5, s) for s in range(3)]
        q = np.array([5.0, 0.0, 0.0])
        assert afn.query(q).tolist() == [o.query(q) for o in oracles] == [1, 1, 1]


class TestDfn:
    def test_single_point_in_every_list(self):
        dfn = DfnStructure(PointStore([[1.0, 2.0]]), cbar=2.0, keys=philox_keys(3))
        assert dfn.keys.shape == dfn.ids.shape == (dfn.ell, 1)
        assert dfn.directions.shape == (1, dfn.ell, 2)

    def test_projection_fidelity(self, rng):
        pts = [(i, rng.standard_normal(6)) for i in range(40)]
        dfn = DfnStructure(store_of(pts), cbar=2.0, keys=keys_of([5, 6]))
        for row, stored in enumerate(rows_of(dfn, dfn.store)):
            direction = dfn.directions[row // dfn.ell, row % dfn.ell]
            expected = sorted((float(direction @ p), pid) for pid, p in pts)
            assert [pid for _, pid in stored] == [pid for _, pid in expected]
            for (k1, _), (k2, _) in zip(stored, expected):
                assert abs(k1 - k2) <= 1e-12

    def test_projection_fidelity_after_updates(self, rng):
        pts = [(i, rng.standard_normal(4)) for i in range(20)]
        store = store_of(pts)
        dfn = DfnStructure(store, cbar=2.0, keys=keys_of([8, 9]))
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
        for row, stored in enumerate(rows_of(dfn, store)):
            # every live id is listed with its key; retired ids may remain
            direction = dfn.directions[row // dfn.ell, row % dfn.ell]
            expected = sorted((float(direction @ p), pid) for pid, p in live.items())
            assert len(stored) == len(expected)
            for (k1, p1), (k2, p2) in zip(sorted(stored), expected):
                assert p1 == p2 and abs(k1 - k2) <= 1e-12

    def test_forced_answer_when_one_point_qualifies(self):
        pts = [(0, np.array([0.0, 0.0])), (1, np.array([10.0, 0.0]))]
        dfn = DfnStructure(store_of(pts), cbar=2.0, keys=keys_of(range(100)))
        hits = dfn.query(np.array([0.0, 0.0]), r=5.0)
        assert set(hits.tolist()) <= {-1, 1}  # only (10, 0) is at distance >= 2.5
        assert (hits == 1).sum() >= 50  # success with constant probability per replica

    def test_all_points_too_close_always_fail(self, rng):
        pts = [(i, 0.01 * rng.standard_normal(3)) for i in range(20)]
        dfn = DfnStructure(store_of(pts), cbar=2.0, keys=keys_of([4, 5, 6]))
        q = np.zeros(3)
        assert dfn.query(q, r=10.0).tolist() == [-1, -1, -1]

    def test_soundness_postcheck(self, rng):
        pts = [(i, rng.standard_normal(5)) for i in range(50)]
        dfn = DfnStructure(store_of(pts), cbar=1.5, keys=keys_of(range(9, 13)))
        for _ in range(50):
            q = rng.standard_normal(5)
            r = rng.uniform(0.5, 4.0, dfn.replicas)
            for pid, radius in zip(dfn.query(q, r).tolist(), r):
                if pid >= 0:
                    assert np.linalg.norm(dfn.store[pid] - q) >= radius / dfn.cbar

    def test_nonpositive_radius_raises(self):
        dfn = DfnStructure(PointStore([[0.0], [1.0]]), cbar=2.0, keys=keys_of([0, 1]))
        with pytest.raises(ValueError):
            dfn.query(np.zeros(1), [1.0, 0.0])

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
        dfn = DfnStructure(store, cbar=2.0, keys=keys_of([seed, seed + 1]))
        removed = set()
        for remove, pick in ops:
            if remove and len(store):
                pid = int(store.ids[pick % len(store)])
                store.remove(pid)
                removed.add(pid)
            else:
                dfn.insert(store.add(rng.standard_normal(3)))
            q = rng.standard_normal(3)
            if not len(store):  # every pair is retired: no replica answers
                assert dfn.query(q, 0.05).tolist() == [-1, -1]
                continue
            live_only = copy.copy(dfn)
            listed = np.isin(dfn.ids, store.ids)  # every row lists the same ids
            live_only.keys = dfn.keys[listed].reshape(len(dfn.keys), -1)
            live_only.ids = dfn.ids[listed].reshape(len(dfn.ids), -1)
            for r in (0.05, 0.5, 2.0):
                hits, expected = dfn.query(q, r), live_only.query(q, r)
                assert hits.tolist() == expected.tolist()
                assert not removed & set(hits.tolist())

    @settings(max_examples=40, deadline=None)
    @given(
        n0=st.integers(1, 12),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=20),
        seed=st.integers(0, 2**16),
    )
    def test_late_build_lists_the_pairs_of_an_early_one(self, n0, ops, seed):
        rng = np.random.default_rng(seed)
        store = PointStore(rng.standard_normal((n0, 3)))
        seeds = [seed, seed + 1]
        early = DfnStructure(store, cbar=2.0, keys=keys_of(seeds))
        for remove, pick in ops:
            if remove and len(store) > 1:
                store.remove(int(store.ids[pick % len(store)]))
            else:
                early.insert(store.add(rng.standard_normal(3)))
        late = DfnStructure(store, cbar=2.0, keys=keys_of(seeds))
        assert (late.n0, late.ell, late.t) == (early.n0, early.ell, early.t)
        # bit-equal keys; the early rows may also hold ids added and removed since
        assert rows_of(late, store) == rows_of(early, store)
        q = rng.standard_normal(3)
        for r in (0.05, 0.5, 2.0):
            assert late.query(q, r).tolist() == early.query(q, r).tolist()

    def test_candidate_cap_spans_directions(self, rng):
        # 200 points at cbar 2 give ell = 2, so 2 ell + 1 = 5 candidates are
        # collected across both directions' rows, live ids only, in row order
        store = PointStore(rng.standard_normal((200, 3)))
        for pid in range(0, 60, 3):
            store.remove(pid)
        dfn = DfnStructure(store, cbar=2.0, keys=philox_keys(11))
        assert dfn.ell == 2
        cap = 2 * dfn.ell + 1
        spanned = False
        for _ in range(40):
            q = rng.standard_normal(3)
            r = float(rng.uniform(0.5, 5.0))
            T = r * dfn.t / dfn.cbar
            per_direction = []
            for row, center in zip(rows_of(dfn, store), dfn.directions[0] @ q):
                per_direction.append(
                    [pid for key, pid in row if key <= center - T or key >= center + T]
                )
            expected = list(dict.fromkeys(per_direction[0] + per_direction[1]))[:cap]
            spanned |= len(expected) == cap and len(set(per_direction[0])) < cap
            dist = {pid: float(np.linalg.norm(store[pid] - q)) for pid in expected}
            far = [pid for pid in expected if dist[pid] >= r / dfn.cbar]
            [hit] = dfn.query(q, r).tolist()
            if far:
                top = max(dist[pid] for pid in far)
                assert hit == [pid for pid in far if dist[pid] == top][-1]
            else:
                assert hit == -1
        assert spanned  # some query filled the cap from both directions

    def test_shared_distance_table_matches_fresh_queries(self, rng):
        pts = [(i, rng.standard_normal(4)) for i in range(30)]
        store = store_of(pts)
        dfn = DfnStructure(store, cbar=1.5, keys=keys_of([2, 3]))
        q = rng.standard_normal(4)
        store.remove(7)
        probe = dfn.probe(q)
        for r in (0.1, 1.0, 3.0):
            assert dfn.query(q, r, probe).tolist() == dfn.query(q, r).tolist()
        centers, live, dist = probe
        assert np.array_equal(centers.ravel(), (dfn.directions @ q).ravel())
        assert np.array_equal(live, dfn.ids != 7)
        for pid, d in zip(dfn.ids.ravel().tolist(), dist.ravel().tolist()):
            if pid == 7:
                assert np.isnan(d)
            else:
                assert d == float(np.linalg.norm(dict(pts)[pid] - q))


class TestPointStore:
    def test_boxwidth_simple(self):
        store = PointStore([[0.0, 0.0], [1.0, 2.0]])
        assert store.boxwidth == pytest.approx(2.0)

    def test_boxwidth_single_point(self):
        store = PointStore([[3.0, 4.0]])
        assert store.boxwidth == 0.0
        assert AfnStructure(store, 2.0, philox_keys(0)).query(np.array([0.0, 0.0])).tolist() == [0]

    def test_boxwidth_of_an_emptied_store_is_not_found(self):
        store = PointStore([[3.0, 4.0], [5.0, 6.0]])
        assert store.boxwidth == 2.0
        store.remove(0)
        store.remove(1)
        with pytest.raises(NotFound, match="no boxwidth"):
            store.boxwidth

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

    @pytest.mark.parametrize("bad", [[1.0], [[1.0, 0.0, 0.0]], [1.0, 0.0, 0.0, 0.0], 1.0])
    def test_wrong_shape_add_is_refused_and_changes_nothing(self, bad):
        store = PointStore(np.eye(3))
        store.remove(1)
        with pytest.raises(DimensionMismatch, match="dim 3"):
            store.add(bad)
        assert len(store) == 2 and store.next_id == 3
        assert np.array_equal(store.points, np.eye(3)[[0, 2]])
        assert store.add([0.0, 0.0, 1.0]) == 3

    def test_reads_copy_and_survive_swap_remove(self):
        store = PointStore([[0.0], [1.0], [2.0]])
        p = store[2]
        store.remove(0)
        assert store.add([5.0]) == 3
        assert p[0] == 2.0 and store[2][0] == 2.0 and store[3][0] == 5.0
        assert sorted(store.ids.tolist()) == [1, 2, 3] and store.lowest_id() == 1
        assert 3 in store and 0 not in store
        with pytest.raises(NotFound):
            store[0]
        assert store.add([6.0]) == 4  # the removed id 0 is never reissued

    def test_reads_come_in_id_order_and_initial_rows_stay(self):
        store = PointStore([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        for p in ([6.0, 7.0], [8.0, 9.0]):  # the second add doubles the capacity
            store.add(p)
        store.remove(1)
        store.remove(3)
        assert store.ids.tolist() == [0, 2, 4] and len(store) == 3
        assert store.points.tolist() == [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]]
        store.points[0] = -1.0  # a copy: the store is unchanged
        assert store[0].tolist() == [0.0, 1.0]
        initial = store.initial_points
        assert initial.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]  # id 1 too
        with pytest.raises(ValueError):
            initial[0, 0] = -1.0
        assert -1 not in store and 5 not in store and 1 not in store

    def test_zero_rows_refused(self):
        # a store of no rows would have no capacity for its first add to double
        with pytest.raises(PreconditionViolation):
            PointStore(np.empty((0, 2)))


class TestAfn:
    def test_forced_two_point_instance(self):
        pts = [(0, np.zeros(4)), (1, np.array([1.0, 0.0, 0.0, 0.0]))]
        hits = AfnStructure(store_of(pts), cbar=2.0, keys=keys_of(range(40))).query(np.zeros(4))
        assert set(hits.tolist()) == {1}
        assert len(hits) >= 20

    def test_quality_and_success_rate_on_sphere(self, rng):
        # 200 points on S^7, approximation factor cbar + delta
        n, d = 200, 8
        cbar, delta = 2.0, 0.1
        total, ok, within = 0, 0, 0
        for seed in range(10):
            pts_arr = rng.standard_normal((n, d))
            pts_arr /= np.linalg.norm(pts_arr, axis=1)[:, None]
            afn = AfnStructure(PointStore(pts_arr), cbar, philox_keys(seed))
            for _ in range(20):
                q = rng.standard_normal(d)
                q /= np.linalg.norm(q)
                exact = np.linalg.norm(pts_arr - q, axis=1).max()
                total += 1
                hit = afn.query(q)
                if hit is None:
                    continue
                ok += 1
                dist = np.linalg.norm(pts_arr[hit[0]] - q)
                if dist >= exact / (cbar + delta) - 1e-12:
                    within += 1
        assert ok / total >= 0.9
        assert within == ok  # every success within the stated factor

    def test_far_query_any_point_fine(self, rng):
        pts_arr = rng.standard_normal((50, 4))
        afn = AfnStructure(PointStore(pts_arr), 2.0, philox_keys(6))
        center = pts_arr.mean(axis=0)
        q = center + 1000.0 * np.ones(4)
        hit = afn.query(q)
        assert hit is not None
        exact = np.linalg.norm(pts_arr - q, axis=1).max()
        assert np.linalg.norm(pts_arr[hit[0]] - q) >= exact / 1.1  # (1 + eps) regime
