"""Exact dependent-point machinery (§4.3) tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.depexact import exact_dependent, solve_s
from repro.core.reference import brute_delta
from repro.core.types import tiebreak
from tests.conftest import make_blobs


class TestSolveS:
    @pytest.mark.parametrize("n,d", [(100, 2), (10_000, 2), (100_000, 3), (1_000_000, 4)])
    def test_equation2(self, n, d):
        s = solve_s(n, d)
        assert s >= 2
        assert s * (s - 1) ** d >= n
        if s > 2:
            assert (s - 1) * (s - 2) ** d < n  # minimality

    def test_small_n(self):
        assert solve_s(1, 2) == 2
        assert solve_s(2, 1) == 2

    def test_monotone_in_n(self):
        assert solve_s(10_000, 2) <= solve_s(100_000, 2)


class TestExactDependent:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_brute_all_points(self, seed, d):
        pts = make_blobs(n_per=60, k=3, d=d, seed=seed)
        n = len(pts)
        rho = np.random.default_rng(seed).integers(0, 50, n).astype(float)
        key = rho + tiebreak(n)
        bd, bdep = brute_delta(pts, key)
        delta, dep, nde = exact_dependent(pts, key, np.arange(n))
        assert np.array_equal(delta, bd)
        assert np.array_equal(dep, bdep)
        assert nde > 0

    def test_subset_of_queries(self):
        pts = make_blobs(n_per=50, k=2, seed=3)
        n = len(pts)
        key = np.arange(n, dtype=float)
        qids = np.array([0, 5, n - 1])
        bd, bdep = brute_delta(pts, key)
        delta, dep, _ = exact_dependent(pts, key, qids)
        assert np.array_equal(delta[qids], bd[qids])
        assert np.array_equal(dep[qids], bdep[qids])
        others = np.setdiff1d(np.arange(n), qids)
        assert np.all(np.isinf(delta[others])) and np.all(dep[others] == -1)

    @pytest.mark.parametrize("s", [2, 3, 10, 50])
    def test_s_invariant(self, s):
        pts = make_blobs(n_per=40, k=2, seed=4)
        n = len(pts)
        key = np.random.default_rng(4).permutation(n).astype(float)
        bd, bdep = brute_delta(pts, key)
        delta, dep, _ = exact_dependent(pts, key, np.arange(n), s=s)
        assert np.array_equal(delta, bd)
        assert np.array_equal(dep, bdep)

    def test_global_peak(self):
        pts = make_blobs(n_per=30, k=2, seed=5)
        n = len(pts)
        key = np.arange(n, dtype=float)
        delta, dep, _ = exact_dependent(pts, key, np.array([n - 1]))
        assert np.isinf(delta[n - 1]) and dep[n - 1] == -1

    def test_empty_queries(self):
        pts = make_blobs(n_per=20, k=1, n_noise=0)
        delta, dep, nde = exact_dependent(pts, np.arange(len(pts), dtype=float), np.empty(0, np.int64))
        assert nde == 0 and np.all(dep == -1)
