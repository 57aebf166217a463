"""Tensor sketches against materialized-matrix oracles and distortion bounds."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsekit.errors import ConfigError, DimensionMismatch
from sparsekit.hashing import MERSENNE_P, PolyHash, poly_tables
from sparsekit.sketch import (
    SketchEnsemble,
    TensorSparseSketch,
    TensorSrhtSketch,
    fwht,
)


def oracle_hash(coeffs, range_size):
    """A PolyHash holding `coeffs` (coeffs[i] of x^i): Python-int Horner per key."""
    h = PolyHash(len(coeffs), range_size, seed=0)
    h.coeffs = [int(c) for c in coeffs]
    return h


COEFF = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, MERSENNE_P - 1]), st.integers(0, MERSENNE_P - 1)
)


@st.composite
def polynomial_blocks(draw):
    """(coeffs, ranges): a (count, len(ranges), degree) nested list of coefficients."""
    degree = draw(st.integers(2, 5))
    ranges = draw(st.lists(st.sampled_from([2, 13, MERSENNE_P - 2]), min_size=1, max_size=4))
    poly = st.lists(COEFF, min_size=degree, max_size=degree)
    polys = st.lists(poly, min_size=len(ranges), max_size=len(ranges))
    return draw(st.lists(polys, min_size=1, max_size=3)), ranges


class TestFwht:
    def test_matches_hadamard_matrix(self, rng):
        from scipy.linalg import hadamard

        for d in (2, 4, 8, 16):
            x = rng.standard_normal(d)
            assert np.allclose(fwht(x), hadamard(d) @ x, atol=1e-10)


class TestSrht:
    def test_zero_maps_to_zero(self):
        S = TensorSrhtSketch(4, 8, seed=7)
        assert np.allclose(S.apply_flat(np.zeros(16)), 0.0)

    def test_pair_matches_materialized(self, rng):
        S = TensorSrhtSketch(4, 8, seed=7)
        dense = S.materialize()
        u = np.zeros(4)
        v = np.zeros(4)
        u[0] = 1.0
        v[1] = 1.0
        uv = np.outer(u, v).ravel()
        assert np.allclose(S.apply_flat(uv), dense @ uv, atol=1e-9)
        for _ in range(10):
            uv = np.outer(rng.standard_normal(4), rng.standard_normal(4)).ravel()
            assert np.allclose(S.apply_flat(uv), dense @ uv, atol=1e-9)

    def test_flat_consistency(self, rng):
        S = TensorSrhtSketch(8, 16, seed=3)
        assert np.allclose(S.apply_flat(np.zeros(64)), 0.0)
        dense = S.materialize()
        x = rng.standard_normal(64)
        assert np.allclose(S.apply_flat(x), dense @ x, atol=1e-9)

    def test_frobenius_norm_bound(self):
        for seed in range(5):
            S = TensorSrhtSketch(4, 16, seed=seed)
            assert np.linalg.norm(S.materialize()) <= 4.0 + 1e-9

    def test_monte_carlo_distortion(self, rng):
        d, b = 16, 256
        S = TensorSrhtSketch(d, b, seed=11)
        good = 0
        trials = 1000
        for _ in range(trials):
            u = rng.standard_normal(d)
            v = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            out = S.apply_flat(np.outer(u, v).ravel())
            if abs(out @ out - 1.0) <= 0.5:
                good += 1
        assert good >= 0.99 * trials

    def test_padding_invisible(self, rng):
        # side 3 pads to 4; norms of sketched vectors track the unpadded input
        S = TensorSrhtSketch(3, 64, seed=5)
        assert S.side == 4
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        out = S.apply_flat(np.outer(u, v).ravel())
        assert out.shape == (64,)


class TestTensorSparse:
    def test_zero_maps_to_zero(self):
        R = TensorSparseSketch(4, 8, 2, seed=3)
        assert np.allclose(R.apply_flat(np.zeros(16)), 0.0)

    def test_pair_matches_materialized(self, rng):
        R = TensorSparseSketch(4, 8, 2, seed=3)
        dense = R.materialize()
        e1 = np.zeros(4)
        e1[0] = 1.0
        e11 = np.outer(e1, e1).ravel()
        assert np.allclose(R.apply_flat(e11), dense @ e11, atol=1e-9)
        for _ in range(10):
            uv = np.outer(rng.standard_normal(4), rng.standard_normal(4)).ravel()
            assert np.allclose(R.apply_flat(uv), dense @ uv, atol=1e-9)

    def test_flat_matches_materialized(self, rng):
        R = TensorSparseSketch(4, 12, 3, seed=9)
        dense = R.materialize()
        x = rng.standard_normal(16)
        assert np.allclose(R.apply_flat(x), dense @ x, atol=1e-9)

    @pytest.mark.parametrize(
        "make",
        [lambda: TensorSparseSketch(5, 12, 3, seed=4), lambda: TensorSrhtSketch(5, 12, seed=4)],
        ids=["sparse", "srht"],
    )
    def test_stacked_flat_equals_row_by_row(self, make, rng):
        R = make()
        full = R.side**2
        for length in (full, 7, 1):  # full rows, then zero-padded short rows
            X = rng.standard_normal((9, length))
            rows = np.stack([R.apply_flat(x) for x in X])
            assert np.array_equal(R.apply_flat(X), rows)
        assert R.apply_flat(np.zeros((0, full))).shape == (0, 12)

    def test_stacked_flat_sums_in_scatter_add_order(self, rng):
        # the row-at-a-time scatter-add the index's goldens were recorded with
        R = TensorSparseSketch(4, 8, 2, seed=6)
        X = rng.standard_normal((5, 16))
        expected = np.zeros((5, R.b))
        for x, out in zip(X, expected):
            grid = x.reshape(4, 4)
            for k in range(R.s):
                rows = (R.h1[:, k][:, None] + R.h2[:, k][None, :]) % R.block
                vals = R.sg1[:, k][:, None] * R.sg2[:, k][None, :] * grid
                np.add.at(out, rows.ravel() + k * R.block, vals.ravel() * (1.0 / math.sqrt(R.s)))
        assert np.array_equal(R.apply_flat(X), expected)

    def test_flat_row_longer_than_capacity_rejected(self, rng):
        R = TensorSparseSketch(3, 6, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            R.apply_flat(rng.standard_normal((4, 10)))
        with pytest.raises(DimensionMismatch):
            R.apply_flat(rng.standard_normal(10))

    def test_column_support_exactly_s_one_per_block(self):
        R = TensorSparseSketch(4, 12, 3, seed=1)
        dense = R.materialize()
        block = 12 // 3
        for col in range(16):
            nz = np.flatnonzero(dense[:, col])
            assert len(nz) == 3
            assert sorted(nz // block) == [0, 1, 2]
            assert np.allclose(np.abs(dense[nz, col]), 1.0 / math.sqrt(3))

    def test_frobenius_norm_exact(self):
        for seed in range(5):
            R = TensorSparseSketch(5, 12, 3, seed=seed)
            assert np.linalg.norm(R.materialize()) == pytest.approx(5.0, abs=1e-12)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            TensorSparseSketch(4, 10, 3, seed=0)

    def test_monte_carlo_distortion(self, rng):
        d, b, s = 16, 512, 32
        R = TensorSparseSketch(d, b, s, seed=17)
        bad = 0
        trials = 1000
        for _ in range(trials):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            out = R.apply_flat(np.outer(u, u).ravel())
            if abs(out @ out - 1.0) > 0.5:
                bad += 1
        assert bad <= 0.05 * trials


class TestDistortionTailVsBound:
    """Empirical tail at most twice the bound the target dimension implies.

    Both sketches have the JL dimension b = ceil(4 eps^-2 log(1/0.1)) = 37
    at eps = 0.5 (the sparse one rounded up to 38, a multiple of its
    s = ceil(eps b) = 19).  The tail model exp(-eps^2 b / 8) uses exponent
    constant 8 rather than that 4: applying a sketch to u (x) v multiplies
    fourth moments, which costs one factor of two in the exponent.  Measured
    tails at (eps=0.5, b=48) sit near exp(-eps^2 b / 5.7), so the model is
    conservative yet still catches gross variance or normalization bugs.
    """

    def _tail(self, sketch, rng, trials=1000, eps=0.5):
        bad = 0
        for _ in range(trials):
            u = rng.standard_normal(16)
            v = rng.standard_normal(16)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            out = sketch.apply_flat(np.outer(u, v).ravel())
            if abs(out @ out - 1.0) > eps:
                bad += 1
        return bad / trials

    @staticmethod
    def implied_tail_bound(eps, b):
        return math.exp(-(eps**2) * b / 8.0)

    def test_srht_tail(self, rng):
        eps, b = 0.5, 37
        tail = self._tail(TensorSrhtSketch(16, b, seed=23), rng, eps=eps)
        assert tail <= 2.0 * self.implied_tail_bound(eps, b)

    def test_sparse_tail(self, rng):
        eps, b, s = 0.5, 38, 19
        tail = self._tail(TensorSparseSketch(16, b, s, seed=29), rng, eps=eps)
        assert tail <= 2.0 * self.implied_tail_bound(eps, b)


class TestEnsemble:
    def test_master_seed_determinism(self, rng):
        a = SketchEnsemble(side=4, b=16, s=4, k=5, master_seed=42)
        b = SketchEnsemble(side=4, b=16, s=4, k=5, master_seed=42)
        uv = np.outer(rng.standard_normal(4), rng.standard_normal(4)).ravel()
        for sa, sb in zip(a.sketches, b.sketches):
            assert np.array_equal(sa.apply_flat(uv), sb.apply_flat(uv))

    def test_distinct_member_tables(self):
        ens = SketchEnsemble(side=4, b=16, s=8, k=20, master_seed=1)
        tables = {
            tuple(table.tobytes() for table in (sk.h1, sk.h2, sk.sg1, sk.sg2))
            for sk in ens.sketches
        }
        assert len(tables) == 20

    def test_member_tables_are_the_drawn_polynomials(self):
        # default_rng(master_seed) draws the (k, 4, degree) coefficients in two
        # calls, the leading ones from [1, P); PolyHash evaluates each key
        k, side, b, s = 3, 3, 12, 4
        ens = SketchEnsemble(side=side, b=b, s=s, k=k, master_seed=9)
        rng = np.random.default_rng(9)
        degree = 3  # ceil(ln(1 / DELTA))
        coeffs = rng.integers(0, MERSENNE_P, size=(k, 4, degree), dtype=np.uint64)
        coeffs[..., -1] = rng.integers(1, MERSENNE_P, size=(k, 4), dtype=np.uint64)
        for sk, member in zip(ens.sketches, coeffs.tolist(), strict=True):
            tables = (sk.h1, sk.h2, (sk.sg1 + 1) / 2, (sk.sg2 + 1) / 2)
            for table, row, size in zip(tables, member, (b // s, b // s, 2, 2), strict=True):
                h = oracle_hash(row, size)
                assert table.tolist() == [[h(i * s + j) for j in range(s)] for i in range(side)]

    def test_sample_full_and_singleton(self):
        ens = SketchEnsemble(side=4, b=16, s=8, k=6, master_seed=3)
        all_idx = ens.sample(6, np.random.default_rng(0))
        assert sorted(all_idx.tolist()) == list(range(6))
        one = ens.sample(1, np.random.default_rng(12))
        again = ens.sample(1, np.random.default_rng(12))
        assert one == again

    def test_sample_count_validated(self):
        ens = SketchEnsemble(side=4, b=16, s=8, k=6, master_seed=3)
        with pytest.raises(ConfigError):
            ens.sample(7, np.random.default_rng(0))

    def test_sampling_uniformity(self):
        ens = SketchEnsemble(side=2, b=4, s=2, k=8, master_seed=3)
        rng = np.random.default_rng(99)
        counts = np.zeros(8)
        draws = 10**5
        for _ in range(draws // 2):
            for i in ens.sample(2, rng):
                counts[i] += 1
        expected = draws / 8 * np.ones(8)
        sigma = math.sqrt(draws * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_majority_preserves_distances(self, rng):
        # most members preserve each tested distance within the JL window
        k = 60
        ens = SketchEnsemble(side=4, b=128, s=64, k=k, master_seed=7)
        pts = rng.standard_normal((20, 16))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        queries = rng.standard_normal((10, 16))
        queries /= np.linalg.norm(queries, axis=1)[:, None]
        for q in queries:
            for p in pts:
                true = np.linalg.norm(q - p) ** 2
                ok = 0
                for sk in ens.sketches:
                    est = sk.apply_flat(q - p)
                    if abs(est @ est - true) <= 0.5 * true + 1e-6:
                        ok += 1
                assert ok >= 0.95 * k

    def test_descriptor_rebuilds_the_same_sketches(self, rng):
        ens = SketchEnsemble(side=4, b=16, s=4, k=3, master_seed=11)
        clone = SketchEnsemble(**ens.descriptor())
        uv = np.outer(rng.standard_normal(4), rng.standard_normal(4)).ravel()
        for sa, sb in zip(ens.sketches, clone.sketches):
            assert np.array_equal(sa.apply_flat(uv), sb.apply_flat(uv))


class TestPolyHash:
    def test_deterministic_and_in_range(self):
        h = PolyHash(4, 13, seed=5)
        values = [h(i) for i in range(200)]
        assert values == [h(i) for i in range(200)]
        assert all(0 <= v < 13 for v in values)

    def test_distinct_seeds_differ(self):
        h1 = PolyHash(4, 97, seed=1)
        h2 = PolyHash(4, 97, seed=2)
        assert [h1(i) for i in range(50)] != [h2(i) for i in range(50)]

    def test_pairwise_collision_rate(self):
        # over random functions, Pr[h(0) = h(1)] should be ~ 1/range
        hits = 0
        trials = 2000
        for seed in range(trials):
            h = PolyHash(2, 16, seed=seed)
            hits += h(0) == h(1)
        assert abs(hits / trials - 1 / 16) <= 0.02

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_grid_is_the_hash_of_each_key(self, k, seed):
        # Horner over the whole grid is exact in GF(2^61 - 1), entry by entry
        for range_size in (2, 13, (1 << 61) - 2):
            h = PolyHash(k, range_size, seed=seed)
            for rows, cols in ((1, 1), (3, 4), (7, 5)):
                grid = h.grid(rows, cols)
                assert grid.shape == (rows, cols) and grid.dtype == np.int64
                expected = [[h(r * cols + c) for c in range(cols)] for r in range(rows)]
                assert grid.tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(block=polynomial_blocks(), keys=st.integers(1, 4096))
    @example(block=([[[MERSENNE_P - 1] * 3] * 2], [MERSENNE_P - 2, 2]), keys=4096)
    def test_tables_are_each_polynomial_at_each_key(self, block, keys):
        # the uint64 Horner pass is exact in GF(2^61 - 1), entry by entry
        coeffs, ranges = block
        tables = poly_tables(np.array(coeffs, dtype=np.uint64), ranges, keys)
        assert tables.shape == (len(coeffs), len(ranges), keys) and tables.dtype == np.int64
        for polys, rows in zip(coeffs, tables, strict=True):
            for poly, size, table in zip(polys, ranges, rows, strict=True):
                h = oracle_hash(poly, size)
                assert table.tolist() == [h(x) for x in range(keys)]
