"""kd-tree substrate tests: differential vs brute force + invariants."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distutil import sq_dists
from repro.core.exdpc import joint_range_rho
from repro.index.kdtree import IncrementalKDTree, KDTree, box_lower_bounds, leaf_join


def _pts(n, d, seed=0, scale=100.0):
    return np.random.default_rng(seed).uniform(0, scale, (n, d))


def _brute_count(pts, q, r):
    return int((sq_dists(q[None, :], pts)[0] < r * r).sum())


def _brute_nn(pts, q, live=None):
    """(id, squared distance) of the nearest point; ties to the smallest id."""
    d2 = sq_dists(q[None, :], pts)[0]
    if live is not None:
        d2[~live] = np.inf
    i = int(np.argmin(d2))
    return i, float(d2[i])


class TestBuild:
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 100, 1000])
    def test_perm_is_permutation(self, n):
        t = KDTree(_pts(n, 2))
        assert sorted(t.perm.tolist()) == list(range(n))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_dimensions(self, d):
        t = KDTree(_pts(200, d))
        assert t.d == d and t.n == 200

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.empty((0, 2)))

    def test_1d_shape_rejected(self):
        with pytest.raises(ValueError):
            KDTree(np.arange(5.0))

    def test_leaf_size_one(self):
        t = KDTree(_pts(64, 2), leaf_size=1)
        assert t.n_nodes >= 64

    def test_duplicate_points_ok(self):
        pts = np.ones((50, 3))
        t = KDTree(pts)
        assert t.range_count(pts[0], 0.5) == 50

    def test_memory_bytes_positive(self):
        assert KDTree(_pts(100, 2)).memory_bytes() > 0


class TestRangeCount:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_brute(self, seed, d):
        pts = _pts(500, d, seed)
        t = KDTree(pts, leaf_size=16)
        qs = _pts(30, d, seed + 100)
        for r in (1.0, 10.0, 40.0, 200.0):
            for q in qs:
                assert t.range_count(q, r) == _brute_count(pts, q, r)

    def test_strict_inequality(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        t = KDTree(pts)
        assert t.range_count(np.array([0.0, 0.0]), 5.0) == 1  # dist 5 excluded
        assert t.range_count(np.array([0.0, 0.0]), 5.0 + 1e-9) == 2

    def test_radius_covers_all(self):
        pts = _pts(300, 2, 1)
        t = KDTree(pts)
        assert t.range_count(pts.mean(axis=0), 1e6) == 300

    def test_counts_dist_evals(self):
        t = KDTree(_pts(100, 2))
        t.range_count(np.zeros(2), 10.0)
        assert t.dist_evals > 0


class TestRangeQuery:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute(self, seed):
        pts = _pts(400, 3, seed)
        t = KDTree(pts, leaf_size=8)
        q = pts[seed]
        for r in (5.0, 20.0, 80.0):
            got = sorted(t.range_query(q, r).tolist())
            d2 = sq_dists(q[None, :], pts)[0]
            want = sorted(np.flatnonzero(d2 < r * r).tolist())
            assert got == want

    def test_empty_result(self):
        pts = _pts(100, 2, 0)
        t = KDTree(pts)
        out = t.range_query(np.array([1e6, 1e6]), 1.0)
        assert len(out) == 0 and out.dtype == np.int64

    def test_query_count_consistency(self):
        pts = _pts(300, 4, 2)
        t = KDTree(pts)
        q = pts[7]
        assert len(t.range_query(q, 30.0)) == t.range_count(q, 30.0)


def _check_block(t, pts, block, r):
    """``leaf_join`` over the leaf table gives exactly the brute-force
    neighbours of ``block``, and its candidates are whole leaves."""
    ids, within = leaf_join({**t.leaf_table(), "pts": pts}, block, r)
    got = np.zeros((len(block), len(pts)), dtype=bool)
    got[:, ids] = within
    assert np.array_equal(got, sq_dists(pts[block], pts) < r * r)
    leaf = np.searchsorted(t.edges, np.argsort(t.perm)[ids], side="right") - 1
    assert len(ids) == np.diff(t.edges)[np.unique(leaf)].sum()


class TestLeafTable:
    @pytest.mark.parametrize("leaf_size", [1, 3, 8, 32])
    def test_edges_and_boxes(self, leaf_size):
        pts = _pts(300, 3, leaf_size)
        t = KDTree(pts, leaf_size=leaf_size)
        leaves = sorted((s, e) for s, e, ax in zip(t._start, t._end, t._axis) if ax < 0)
        assert t.edges.tolist() == [s for s, _ in leaves] + [len(pts)]
        for b, (s, e) in enumerate(leaves):
            assert np.array_equal(t.lo[:, b], t.ppts[s:e].min(axis=0))
            assert np.array_equal(t.hi[:, b], t.ppts[s:e].max(axis=0))
        assert set(t.leaf_table()) == {"perm", "edges", "lo", "hi"}

    @pytest.mark.parametrize("seed", range(3))
    def test_box_lower_bounds(self, seed):
        pts = _pts(200, 2, seed)
        t = KDTree(pts, leaf_size=8)
        q = _pts(12, 2, seed + 7)
        # a point against a point box is its squared distance, bit for bit
        t1 = KDTree(pts, leaf_size=1)
        assert np.array_equal(box_lower_bounds(q, q, t1.lo, t1.hi), sq_dists(q, t1.ppts))
        # a box against a leaf: never above a distance between their points
        lb = box_lower_bounds(q[:6].min(axis=0)[None], q[:6].max(axis=0)[None], t.lo, t.hi)[0]
        for b in range(len(t.edges) - 1):
            assert lb[b] <= sq_dists(q[:6], t.ppts[t.edges[b]:t.edges[b + 1]]).min()

    def test_memory_bytes_counts_the_table(self):
        t = KDTree(_pts(100, 3), leaf_size=8)
        n_leaves = len(t.edges) - 1
        nodes = 8 * 7 * t.n_nodes + t.perm.nbytes + t.ppts.nbytes
        assert t.memory_bytes() == nodes + 8 * (n_leaves + 1 + 2 * 3 * n_leaves)


class TestBlockQuery:
    """A block of query points against the leaf table (``leaf_join``)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("r", [1.0, math.sqrt(2), 2.0])
    @pytest.mark.parametrize("kind", ["lattice", "triplicate"])
    def test_leaf_blocks_match_brute(self, kind, r, seed):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        pts = rng.integers(0, 7, (90, d)).astype(float)
        if kind == "triplicate":
            pts = np.repeat(pts[:30], 3, axis=0)[rng.permutation(90)]
        for leaf_size in (1, 3, 8, 32):
            t = KDTree(pts, leaf_size=leaf_size)
            order, bounds = t.leaf_blocks(np.arange(len(pts)))
            for b in range(len(bounds) - 1):
                _check_block(t, pts, order[bounds[b]:bounds[b + 1]], r)

    def test_neighbour_at_d_cut_from_the_rim(self):
        # (5, 5) is the corner of the block {(0, 0), (5, 5)}'s box, and the
        # one-point leaf (6, 6) lies exactly d_cut = sqrt(2) beyond it: its
        # box bound equals d_cut² up to rounding, the leaf filter's edge case.
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [6.0, 6.0]])
        t = KDTree(pts, leaf_size=1)
        ids, within = leaf_join({**t.leaf_table(), "pts": pts}, np.array([0, 1]), math.sqrt(2))
        assert sorted(ids[within[1]].tolist()) == [1, 2]
        _check_block(t, pts, np.array([0, 1]), math.sqrt(2))

    def test_counts_dist_evals(self):
        # The ρ phase counts the pairs it evaluates: |block| × |candidates|
        # per leaf block, nothing for the leaf filter.
        pts = _pts(200, 2)
        t = KDTree(pts, leaf_size=8)
        p = {**t.leaf_table(), "pts": pts}
        order, bounds = t.leaf_blocks(np.arange(len(pts)))
        pairs = [leaf_join(p, order[s:e], 5.0)[1].size for s, e in zip(bounds[:-1], bounds[1:])]
        assert joint_range_rho(pts, t, 5.0)[3] == sum(pairs) < len(pts) ** 2
        assert t.dist_evals == 0

    @pytest.mark.parametrize("n", [1, 33, 500])
    def test_leaf_blocks_partition_by_leaf(self, n):
        t = KDTree(_pts(n, 2), leaf_size=8)
        order, bounds = t.leaf_blocks(np.arange(n))
        assert np.array_equal(order, t.perm)  # every leaf is one block
        ids = np.random.default_rng(n).choice(n, size=(n + 1) // 2, replace=False)
        order, bounds = t.leaf_blocks(ids)
        assert sorted(order.tolist()) == list(range(len(ids)))
        slot = np.argsort(t.perm)
        leaves = [(s, e) for s, e, ax in zip(t._start, t._end, t._axis) if ax < 0]
        for b in range(len(bounds) - 1):
            pos = order[bounds[b]:bounds[b + 1]]
            assert len(pos) and np.all(np.diff(pos) > 0)
            s, e = next(le for le in leaves if le[0] <= slot[ids[pos[0]]] < le[1])
            assert np.all((s <= slot[ids[pos]]) & (slot[ids[pos]] < e))


class TestNN:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_matches_brute(self, seed, d):
        pts = _pts(400, d, seed)
        t = KDTree(pts, leaf_size=4)
        for q in _pts(25, d, seed + 50):
            assert t.nn_with_bound(q, np.inf) == _brute_nn(pts, q)

    @pytest.mark.parametrize("leaf_size", [1, 3, 32])
    def test_ties_go_to_smallest_id(self, leaf_size):
        rng = np.random.default_rng(0)
        pts = np.repeat(rng.integers(0, 4, (30, 2)).astype(float), 3, axis=0)
        pts = pts[rng.permutation(len(pts))]
        t = KDTree(pts, leaf_size=leaf_size)
        for q in np.concatenate([pts, pts + 0.5]):
            assert t.nn_with_bound(q, np.inf) == _brute_nn(pts, q)

    def test_nn_with_bound_prunes(self):
        pts = _pts(500, 2, 1)
        t = KDTree(pts)
        q = np.array([50.0, 50.0])
        bi, bd2 = _brute_nn(pts, q)
        assert t.nn_with_bound(q, bd2 * 2) == (bi, bd2)
        # bound below the true NN distance: nothing found
        assert t.nn_with_bound(q, bd2 * 0.5) == (-1, bd2 * 0.5)

    def test_bound_is_exclusive(self):
        t = KDTree(np.array([[3.0, 4.0], [3.0, 4.0]]))
        q = np.zeros(2)
        assert t.nn_with_bound(q, 25.0) == (-1, 25.0)
        assert t.nn_with_bound(q, math.nextafter(25.0, math.inf)) == (0, 25.0)


class TestHypothesis:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 4),
        st.floats(0.1, 100.0),
        st.integers(0, 10_000),
    )
    def test_range_count_property(self, n, d, r, seed):
        pts = _pts(n, d, seed)
        t = KDTree(pts, leaf_size=7)
        q = _pts(1, d, seed + 1)[0]
        assert t.range_count(q, r) == _brute_count(pts, q, r)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 200),
        st.integers(1, 4),
        st.floats(0.1, 100.0),
        st.integers(1, 40),
        st.integers(0, 10_000),
    )
    def test_block_query_property(self, n, d, r, k, seed):
        pts = _pts(n, d, seed)
        t = KDTree(pts, leaf_size=7)
        block = np.random.default_rng(seed).choice(n, size=min(k, n), replace=False)
        _check_block(t, pts, block, r)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 150), st.integers(1, 3), st.integers(0, 10_000))
    def test_nn_property(self, n, d, seed):
        pts = _pts(n, d, seed)
        t = KDTree(pts, leaf_size=5)
        q = _pts(1, d, seed + 1)[0]
        assert t.nn_with_bound(q, np.inf) == _brute_nn(pts, q)


class TestIncremental:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_prefix_nn_matches_brute(self, seed, d):
        uniform = _pts(200, d, seed)
        for pts in (uniform, np.round(uniform / 25.0)):  # the second has ties
            t = IncrementalKDTree(KDTree(pts, leaf_size=4))
            live = np.zeros(len(pts), dtype=bool)
            for i in np.random.default_rng(seed).permutation(len(pts)):
                if live.any():
                    assert t.nn(pts[i]) == _brute_nn(pts, pts[i], live)
                t.insert(int(i))
                live[i] = True
            assert len(t) == len(pts)

    def test_empty_nn(self):
        t = IncrementalKDTree(KDTree(_pts(50, 2)))
        assert len(t) == 0
        assert t.nn([0.0, 0.0]) == (-1, np.inf)

    def test_duplicate_inserts(self):
        t = IncrementalKDTree(KDTree(np.ones((10, 2)), leaf_size=3))
        for i in (9, 7, 5):
            t.insert(i)
        assert t.nn([1.0, 1.0]) == (5, 0.0)
        t.insert(2)
        assert t.nn([1.0, 1.0]) == (2, 0.0)

    def test_counts_dist_evals(self):
        tree = KDTree(np.zeros((1, 2)))
        t = IncrementalKDTree(tree)
        t.insert(0)
        t.nn([1.0, 1.0])
        assert t.dist_evals > 0 and tree.dist_evals == 0

    def test_dist_evals_count_live_points_only(self):
        # One live point in a 1,000-point tree: the query compares with
        # it alone, not with the empty slots of its leaf.
        t = IncrementalKDTree(KDTree(_pts(1000, 2)))
        t.insert(123)
        t.nn([0.0, 0.0])
        assert t.dist_evals == 1

    def test_memory_bytes(self):
        tree = KDTree(_pts(100, 3), leaf_size=8)
        t = IncrementalKDTree(tree)
        # counts per node and id -> slot map; the slots are the tree's own
        want = 8 * tree.n_nodes + 8 * 100
        assert t.memory_bytes() == want
        t.insert(0)
        assert t.memory_bytes() == want

    @pytest.mark.parametrize("leaf_size", [1, 4, 32])
    def test_refill_restores_the_static_tree(self, leaf_size):
        pts = _pts(300, 3, leaf_size)
        tree = KDTree(pts, leaf_size=leaf_size)
        t = IncrementalKDTree(tree)
        assert np.isinf(tree.ppts).all()  # "destroy K": every slot emptied
        t.refill(np.random.default_rng(0).permutation(len(pts)))
        assert len(t) == len(pts)
        assert tree.ppts.tobytes() == KDTree(pts, leaf_size=leaf_size).ppts.tobytes()

    def test_partly_filled_leaf_never_returns_an_empty_slot(self):
        # One leaf of eight tied points: with only the largest id back, the
        # seven empty slots before it are infinitely far and must lose to it.
        t = IncrementalKDTree(KDTree(np.ones((8, 2)), leaf_size=8))
        t.insert(7)
        assert t.nn([1.0, 1.0]) == (7, 0.0)
        assert t.nn([4.0, 5.0]) == (7, 25.0)
        dep, d2 = IncrementalKDTree(KDTree(np.ones((8, 2)), leaf_size=8)).refill(
            np.array([7, 5, 6]))
        assert dep[[7, 5, 6]].tolist() == [-1, 7, 5] and d2[[5, 6]].tolist() == [0.0, 0.0]
        assert (dep[:5] == -1).all() and np.isinf(d2[:5]).all()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_refill_matches_the_step_methods(self, seed, d):
        uniform = _pts(300, d, seed)
        for pts in (uniform, np.round(uniform / 25.0)):  # the second has ties
            order = np.random.default_rng(seed).permutation(len(pts))
            steps = IncrementalKDTree(KDTree(pts, leaf_size=4))
            dep = np.full(len(pts), -1)
            d2 = np.full(len(pts), np.inf)
            for i in order:
                if len(steps):
                    dep[i], d2[i] = steps.nn(pts[i])
                steps.insert(int(i))
            t = IncrementalKDTree(KDTree(pts, leaf_size=4))
            got_dep, got_d2 = t.refill(order)
            assert np.array_equal(got_dep, dep)
            assert got_d2.tobytes() == d2.tobytes()
            assert t.dist_evals == steps.dist_evals
