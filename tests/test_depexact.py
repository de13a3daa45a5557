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

    def test_scans_stay_within_the_chunk_bound(self, monkeypatch):
        # Cluster peaks scan most leaves; every bound matrix and every
        # pair scan must stay at most _CELLS entries.
        sizes = {"bounds": [], "pairs": []}
        lbs, pq = depexact.box_lower_bounds, depexact.paired_sq

        def spy_lb(qlo, qhi, lo, hi):
            sizes["bounds"].append(len(qlo) * lo.shape[1])
            return lbs(qlo, qhi, lo, hi)

        def spy_pq(a, b):
            sizes["pairs"].append(len(a))
            return pq(a, b)

        monkeypatch.setattr(depexact, "_CELLS", 256)
        monkeypatch.setattr(depexact, "box_lower_bounds", spy_lb)
        monkeypatch.setattr(depexact, "paired_sq", spy_pq)
        pts = make_blobs(n_per=100, k=2, seed=8)
        n = len(pts)
        key = np.random.default_rng(8).permutation(n).astype(float)
        bd, bdep = brute_delta(pts, key)
        delta, dep, nde = exact_dependent(pts, KDTree(pts, 8), key, np.arange(n))
        assert np.array_equal(delta, bd) and np.array_equal(dep, bdep)
        assert len(sizes["bounds"]) > 1 and max(sizes["bounds"]) <= 256
        assert max(sizes["pairs"]) <= 256 and sum(sizes["pairs"]) == nde


class TestCellOf:
    """With ``cell_of``, candidates are ranked and reported by cell."""

    @pytest.mark.parametrize("leaf_size", [1, 2, 32])
    def test_equidistant_tie_goes_to_the_smaller_cell(self, leaf_size):
        # Root 0 has two higher-key picked points at distance 1: point 1
        # in cell 4 and point 2 in cell 3. Points 3 and 4 are nearer but
        # not picked (key −∞); point 5 is picked but farther.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.1, 0.0], [0.0, 0.2], [3.0, 3.0]])
        key = np.array([1.0, 2.0, 3.0, -np.inf, -np.inf, 4.0])
        cell_of = np.array([0, 4, 3, 0, 2, 1])
        tree = KDTree(pts, leaf_size)
        delta, dep, _ = exact_dependent(pts, tree, key, np.array([0]), cell_of=cell_of)
        assert delta[0] == 1.0 and dep[0] == 3  # cell 3, i.e. point 2
        delta, dep, _ = exact_dependent(pts, tree, key, np.array([0]))
        assert delta[0] == 1.0 and dep[0] == 1  # by point id: point 1

    def test_picked_points_match_brute_force(self):
        # Only the picked points (finite key) compete; dep is their cell.
        rng = np.random.default_rng(9)
        pts = rng.integers(0, 6, (300, 2)).astype(float)
        n = len(pts)
        picked = np.sort(rng.choice(n, 60, replace=False))
        cell_of = np.full(n, -1)
        cell_of[picked] = rng.permutation(60)
        key = np.full(n, -np.inf)
        key[picked] = rng.permutation(60).astype(float)
        by_cell = picked[np.argsort(cell_of[picked])]
        bd, bdep = brute_delta(pts[by_cell], key[by_cell])
        delta, dep, _ = exact_dependent(pts, KDTree(pts, 4), key, picked, cell_of=cell_of)
        assert np.array_equal(delta[picked], bd[cell_of[picked]])
        assert np.array_equal(dep[picked], bdep[cell_of[picked]])
