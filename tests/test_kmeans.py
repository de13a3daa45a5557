"""k-means substrate tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import kmeans as kmeans_module
from repro.baselines.kmeans import kmeans
from tests.conftest import make_blobs


class TestKMeans:
    def test_shapes(self):
        pts = make_blobs(n_per=50, k=3, n_noise=0)
        cents, lab = kmeans(pts, 5, seed=0)
        assert cents.shape == (5, 2) and lab.shape == (len(pts),)
        assert lab.min() >= 0 and lab.max() < 5

    def test_deterministic(self):
        pts = make_blobs(n_per=50, k=3)
        c1, l1 = kmeans(pts, 4, seed=7)
        c2, l2 = kmeans(pts, 4, seed=7)
        assert np.array_equal(c1, c2) and np.array_equal(l1, l2)

    def test_k_clamped_to_n(self):
        pts = np.random.default_rng(0).uniform(0, 1, (3, 2))
        cents, lab = kmeans(pts, 10)
        assert len(cents) == 3

    def test_recovers_separated_blobs(self, monkeypatch):
        pts = make_blobs(n_per=100, k=3, spread=2.0, sep=200.0, n_noise=0, seed=1)
        monkeypatch.setattr(kmeans_module, "_ITERS", 20)
        cents, lab = kmeans(pts, 3, seed=1)
        # with k == #blobs and wide separation, within-cluster spread is
        # tiny compared to the blob separation
        inertia = float(((pts - cents[lab]) ** 2).sum())
        assert inertia / len(pts) < 10 * 2.0**2 * pts.shape[1]

    def test_assignment_is_nearest_centroid(self):
        pts = make_blobs(n_per=80, k=2, seed=2)
        cents, lab = kmeans(pts, 6, seed=2)
        d = np.linalg.norm(pts[:, None, :] - cents[None, :, :], axis=2)
        assert np.array_equal(lab, np.argmin(d, axis=1))

    def test_no_empty_clusters_on_reasonable_data(self):
        pts = make_blobs(n_per=100, k=4, seed=3)
        _, lab = kmeans(pts, 8, seed=3)
        assert len(np.unique(lab)) == 8

    def test_inertia_decreases_with_iters(self, monkeypatch):
        pts = make_blobs(n_per=100, k=4, seed=4)

        def inertia(iters):
            monkeypatch.setattr(kmeans_module, "_ITERS", iters)
            cents, lab = kmeans(pts, 6, seed=4)
            return float(((pts - cents[lab]) ** 2).sum())

        assert inertia(10) <= inertia(0) + 1e-6

    def test_k_one(self):
        pts = make_blobs(n_per=30, k=2, n_noise=0)
        cents, lab = kmeans(pts, 1)
        assert np.allclose(cents[0], pts.mean(axis=0))
        assert np.all(lab == 0)
