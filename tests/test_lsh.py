"""p-stable LSH substrate tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lsh import CompoundLSH


def _pts(n, d, seed=0, scale=100.0):
    return np.random.default_rng(seed).uniform(0, scale, (n, d))


def _lsh(d, *, k=3, L=4, w=1.0, seed=0):
    return CompoundLSH(d, k, L, w, seed)


class TestCompoundLSH:
    def test_deterministic(self):
        pts = _pts(200, 3)
        a = _lsh(3, seed=5).bucket_ids(pts)
        b = _lsh(3, seed=5).bucket_ids(pts)
        assert np.array_equal(a, b)

    def test_seed_changes_layout(self):
        pts = _pts(200, 3)
        a = _lsh(3, seed=1).bucket_ids(pts)
        b = _lsh(3, seed=2).bucket_ids(pts)
        assert not np.array_equal(a, b)

    def test_shape(self):
        pts = _pts(100, 2)
        ids = _lsh(2, k=2, L=5).bucket_ids(pts)
        assert ids.shape == (5, 100)

    def test_buckets_dense(self):
        pts = _pts(300, 2)
        ids = _lsh(2).bucket_ids(pts)
        for row in ids:
            assert row.min() == 0
            assert set(row.tolist()) == set(range(row.max() + 1))

    def test_identical_points_collide(self):
        pts = np.tile(np.array([[1.0, 2.0]]), (10, 1))
        ids = _lsh(2).bucket_ids(pts)
        assert np.all(ids == ids[:, :1])

    def test_near_points_collide_more_than_far(self):
        """Locality: P[collision] decreases with distance (statistically)."""
        rng = np.random.default_rng(0)
        base = rng.uniform(0, 100, (500, 2))
        near = base + rng.normal(0, 0.1, base.shape)
        far = base + rng.normal(0, 50.0, base.shape)
        lsh = _lsh(2, k=2, L=1, w=5.0, seed=3)
        b0 = lsh.bucket_ids(np.vstack([base, near]))[0]
        c_near = (b0[:500] == b0[500:]).mean()
        b1 = lsh.bucket_ids(np.vstack([base, far]))[0]
        c_far = (b1[:500] == b1[500:]).mean()
        assert c_near > c_far

    def test_larger_w_fewer_buckets(self):
        pts = _pts(400, 3, 1)
        small = _lsh(3, w=1.0, seed=0).bucket_ids(pts)[0].max()
        big = _lsh(3, w=100.0, seed=0).bucket_ids(pts)[0].max()
        assert big <= small

    def test_invalid_w(self):
        with pytest.raises(ValueError):
            _lsh(2, w=0.0)

    def test_memory_bytes(self):
        assert _lsh(2).memory_bytes(1000) > 0
