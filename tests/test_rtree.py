"""R-tree substrate tests: STR build invariants + range counts vs brute."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distutil import sq_dists
from repro.index import rtree
from repro.index.rtree import RTree


def _pts(n, d, seed=0, scale=100.0):
    return np.random.default_rng(seed).uniform(0, scale, (n, d))


def _brute_count(pts, q, r):
    return int((sq_dists(q[None, :], pts)[0] < r * r).sum())


class TestBuild:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 500, 2000])
    def test_total_count(self, n):
        t = RTree(_pts(n, 2))
        assert t._count[t.root] == n

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_dims(self, d):
        t = RTree(_pts(300, d))
        assert t.d == d

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RTree(np.empty((0, 3)))

    def test_root_bbox_covers_all(self):
        pts = _pts(500, 3, 1)
        t = RTree(pts)
        assert np.all(t._bmin[t.root] <= pts.min(axis=0) + 1e-12)
        assert np.all(t._bmax[t.root] >= pts.max(axis=0) - 1e-12)

    def test_perm_is_permutation(self):
        t = RTree(_pts(777, 2, 2))
        assert sorted(t.perm.tolist()) == list(range(777))

    def test_memory_bytes_positive(self):
        assert RTree(_pts(100, 2)).memory_bytes() > 0


class TestRangeCount:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_brute(self, seed, d, monkeypatch):
        pts = _pts(600, d, seed)
        monkeypatch.setattr(rtree, "_LEAF_SIZE", 32)
        monkeypatch.setattr(rtree, "_FANOUT", 8)
        t = RTree(pts)
        for q in _pts(20, d, seed + 10):
            for r in (2.0, 15.0, 60.0, 300.0):
                assert t.range_count(q, r) == _brute_count(pts, q, r)

    def test_fully_inside_shortcut(self):
        # huge radius: every MBR is inside the ball, no leaf evals needed
        pts = _pts(500, 2, 0)
        t = RTree(pts)
        before = t.dist_evals
        assert t.range_count(pts.mean(axis=0), 1e9) == 500
        assert t.dist_evals == before  # counted via subtree sizes only

    def test_strict_inequality(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        t = RTree(pts)
        assert t.range_count(np.array([0.0, 0.0]), 5.0) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 4),
        st.floats(0.1, 200.0),
        st.integers(0, 10_000),
    )
    def test_property(self, n, d, r, seed):
        pts = _pts(n, d, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rtree, "_LEAF_SIZE", 16)
            mp.setattr(rtree, "_FANOUT", 4)
            t = RTree(pts)
        q = _pts(1, d, seed + 1)[0]
        assert t.range_count(q, r) == _brute_count(pts, q, r)
