"""Exact dependent-point machinery (§4.3) tests."""
from __future__ import annotations

import numpy as np
import pytest

import repro.core.depexact as depexact
from repro.core.depexact import exact_dependent
from repro.core.reference import brute_delta
from repro.core.types import tiebreak
from repro.index.kdtree import KDTree
from tests.conftest import make_blobs


class TestExactDependent:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_brute_all_points(self, seed, d):
        pts = make_blobs(n_per=60, k=3, d=d, seed=seed)
        n = len(pts)
        rho = np.random.default_rng(seed).integers(0, 50, n).astype(float)
        key = rho + tiebreak(n)
        bd, bdep = brute_delta(pts, key)
        delta, dep, nde = exact_dependent(pts, KDTree(pts), key, np.arange(n))
        assert np.array_equal(delta, bd)
        assert np.array_equal(dep, bdep)
        assert nde > 0

    def test_subset_of_queries(self):
        pts = make_blobs(n_per=50, k=2, seed=3)
        n = len(pts)
        key = np.arange(n, dtype=float)
        qids = np.array([0, 5, n - 1])
        bd, bdep = brute_delta(pts, key)
        delta, dep, _ = exact_dependent(pts, KDTree(pts), key, qids)
        assert np.array_equal(delta[qids], bd[qids])
        assert np.array_equal(dep[qids], bdep[qids])
        others = np.setdiff1d(np.arange(n), qids)
        assert np.all(np.isinf(delta[others])) and np.all(dep[others] == -1)

    @pytest.mark.parametrize("leaf_size", [1, 3, 10, 32, 1000])
    def test_leaf_size_invariant(self, leaf_size):
        pts = make_blobs(n_per=40, k=2, seed=4)
        n = len(pts)
        key = np.random.default_rng(4).permutation(n).astype(float)
        bd, bdep = brute_delta(pts, key)
        delta, dep, _ = exact_dependent(pts, KDTree(pts, leaf_size), key, np.arange(n))
        assert np.array_equal(delta, bd)
        assert np.array_equal(dep, bdep)

    def test_ties_go_to_the_smallest_id(self):
        # Every point has four copies; the query's nearest denser points
        # are its own copies at distance 0, spread over several leaves.
        pts = np.repeat(np.random.default_rng(6).uniform(0, 9, (30, 2)), 4, axis=0)
        n = len(pts)
        key = np.random.default_rng(7).permutation(n).astype(float)
        bd, bdep = brute_delta(pts, key)
        delta, dep, _ = exact_dependent(pts, KDTree(pts, 3), key, np.arange(n))
        assert np.array_equal(delta, bd) and np.array_equal(dep, bdep)

    def test_global_peak(self):
        pts = make_blobs(n_per=30, k=2, seed=5)
        n = len(pts)
        key = np.arange(n, dtype=float)
        delta, dep, _ = exact_dependent(pts, KDTree(pts), key, np.array([n - 1]))
        assert np.isinf(delta[n - 1]) and dep[n - 1] == -1

    def test_empty_queries(self):
        pts = make_blobs(n_per=20, k=1, n_noise=0)
        key = np.arange(len(pts), dtype=float)
        delta, dep, nde = exact_dependent(pts, KDTree(pts), key, np.empty(0, np.int64))
        assert nde == 0 and np.all(dep == -1)

    def test_candidate_scan_is_chunked(self, monkeypatch):
        # A cluster peak's block scans most leaves; its distance matrices
        # must stay at most _CHUNK columns wide.
        widths = []
        sq = depexact.sq_dists

        def spy(a, b):
            widths.append(len(b))
            return sq(a, b)

        monkeypatch.setattr(depexact, "_CHUNK", 16)
        monkeypatch.setattr(depexact, "sq_dists", spy)
        pts = make_blobs(n_per=100, k=2, seed=8)
        n = len(pts)
        key = np.random.default_rng(8).permutation(n).astype(float)
        bd, bdep = brute_delta(pts, key)
        delta, dep, _ = exact_dependent(pts, KDTree(pts, 8), key, np.arange(n))
        assert np.array_equal(delta, bd) and np.array_equal(dep, bdep)
        assert max(widths) == 16
